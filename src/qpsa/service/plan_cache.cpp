#include "qpsa/service/plan_cache.hpp"

namespace qpsa::service {

std::shared_ptr<const lomb::fft_engine> plan_cache::engine_for(
    const core::psa_config& cfg) {
    cfg.validate();
    return memo_.get_or_build(cfg.engine_key(), [&] {
        return std::shared_ptr<const lomb::fft_engine>(
            core::psa_system::build_engine(cfg));
    });
}

std::shared_ptr<const core::psa_system> plan_cache::system_for(
    const core::psa_config& cfg) {
    std::shared_ptr<const lomb::fft_engine> engine = engine_for(cfg);
    std::shared_ptr<const lomb::weight_transform> weights =
        weights_.get_or_build({cfg.engine_key(), cfg.lomb}, [&] {
            return lomb::make_weight_transform(*engine, cfg.lomb);
        });
    return std::make_shared<const core::psa_system>(cfg, std::move(engine),
                                                    std::move(weights));
}

plan_cache& global_plan_cache() {
    static plan_cache cache;
    return cache;
}

}  // namespace qpsa::service
