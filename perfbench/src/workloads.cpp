#include "workloads.h"

#include <sstream>
#include <stdexcept>

#include "data/synthetic.h"
#include "fault/models.h"
#include "fault/scenario.h"
#include "nn/models.h"
#include "trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

std::vector<double> rate_grid(double hi, double step) {
    std::vector<double> rates;
    for (int i = 0; i * step <= hi + 1e-9; ++i) { rates.push_back(i * step); }
    return rates;
}

workload_spec mlp_fleet() {
    workload_spec s;
    s.name = "mlp_fleet";
    s.model = model_kind::mlp;
    s.workers = 4;
    s.gemm_threads = 1;
    s.sweep_rates = rate_grid(0.30, 0.05);
    s.sweep_repeats = 4;
    s.sweep_epochs = 6.0;
    s.chips = 200;
    s.rate_lo = 0.01;
    s.rate_hi = 0.30;
    s.constraint = 0.91;
    s.setup_reps = 5;
    return s;
}

workload_spec vgg_fleet() {
    workload_spec s;
    s.name = "vgg_fleet";
    s.model = model_kind::vgg;
    s.workers = 2;
    s.gemm_threads = 2;
    s.eval_batch_chips = 8;
    s.train_batch_chips = 8;
    s.sweep_rates = rate_grid(0.30, 0.05);
    s.sweep_repeats = 2;
    s.sweep_epochs = 3.0;
    s.chips = 100;
    s.rate_lo = 0.01;
    s.rate_hi = 0.30;
    s.constraint = 0.85;
    s.pretrain_epochs = 15.0;
    s.setup_reps = 3;
    return s;
}

workload_spec mlp_timeline() {
    workload_spec s = mlp_fleet();
    s.name = "mlp_timeline";
    s.eval_batch_chips = 8;
    s.train_batch_chips = 8;
    s.sweep_repeats = 2;
    s.chips = 400;
    s.scenario = "strike@0.1:0.05;accrue@0.3:0.02;mode=recover";
    return s;
}

workload_spec dist_fleet() {
    workload_spec s = mlp_fleet();
    s.name = "dist_fleet";
    s.workers = 2;
    s.distributed = true;
    return s;
}

void shrink(workload_spec& s) {
    s.sweep_rates = {0.0, 0.1, 0.3};
    s.sweep_repeats = 1;
    s.sweep_epochs = 1.0;
    s.chips = s.model == model_kind::vgg ? 16 : 12;
    s.pretrain_epochs = s.model == model_kind::vgg ? 2.0 : 0.0;
    s.setup_reps = 1;
}

std::string vgg_context(const workload_spec& spec, const reduce::synthetic_images_config& data,
                        const reduce::fat_config& trainer, const reduce::array_config& array) {
    std::ostringstream context;
    context << "perfbench-vgg11-w0.125|img-" << data.shape.channels << 'x'
            << data.shape.height << 'x' << data.shape.width << "-c" << data.num_classes
            << "-n" << data.samples_per_class << "-ns" << data.noise_stddev << "-ds"
            << data.seed << "|pe" << spec.pretrain_epochs << "|bs" << trainer.batch_size
            << "|arr" << array.rows << 'x' << array.cols;
    return context.str();
}

reduce::workload build_vgg(const workload_spec& spec) {
    using namespace reduce;
    workload w;
    synthetic_images_config data_cfg;
    data_cfg.shape = {3, 8, 8};
    data_cfg.num_classes = 4;
    data_cfg.samples_per_class = 100;
    data_cfg.noise_stddev = 0.35;
    {
        span s("workload.data");
        const dataset full = make_synthetic_images(data_cfg);
        dataset_split split = split_dataset(full, 0.75, 1);
        w.train_data = std::move(split.train);
        w.test_data = std::move(split.test);
    }
    vgg11_config model_cfg;
    model_cfg.input = data_cfg.shape;
    model_cfg.num_classes = data_cfg.num_classes;
    model_cfg.width_multiplier = 0.125;
    rng gen(2);
    w.model = make_vgg11(model_cfg, gen);
    w.array.rows = 64;
    w.array.cols = 64;
    w.trainer_cfg.batch_size = 32;
    {
        span s("workload.pretrain");
        fault_aware_trainer trainer(*w.model, w.train_data, w.test_data, w.trainer_cfg);
        const fat_result result = trainer.train(spec.pretrain_epochs);
        w.clean_accuracy = result.final_accuracy;
        s.arg("steps", static_cast<double>(result.steps_run));
        s.arg("epochs", result.epochs_run);
    }
    w.pretrained = snapshot_parameters(w.model->parameters());
    w.context = vgg_context(spec, data_cfg, w.trainer_cfg, w.array);
    return w;
}

/// make_standard_workload, one public call at a time (same calls, same
/// seeds), so the traced run can time data synthesis and pretraining
/// separately.
reduce::workload build_mlp_traced(const reduce::workload_config& cfg) {
    using namespace reduce;
    workload w;
    w.array = cfg.array;
    w.trainer_cfg = cfg.trainer;
    {
        span s("workload.data");
        const dataset full = make_gaussian_mixture(cfg.data);
        dataset_split split = split_dataset(full, cfg.train_fraction, mix_seed(cfg.seed, 1));
        const feature_stats stats = compute_feature_stats(split.train);
        standardize(split.train, stats);
        standardize(split.test, stats);
        w.train_data = std::move(split.train);
        w.test_data = std::move(split.test);
    }
    std::vector<std::size_t> dims;
    dims.push_back(cfg.data.dim);
    dims.insert(dims.end(), cfg.hidden.begin(), cfg.hidden.end());
    dims.push_back(cfg.data.num_classes);
    rng init_gen(mix_seed(cfg.seed, 2));
    w.model = make_mlp(dims, init_gen);
    {
        span s("workload.pretrain");
        fault_aware_trainer trainer(*w.model, w.train_data, w.test_data, cfg.trainer);
        const fat_result result = trainer.train(cfg.pretrain_epochs);
        w.clean_accuracy = result.final_accuracy;
        s.arg("steps", static_cast<double>(result.steps_run));
        s.arg("epochs", result.epochs_run);
    }
    w.pretrained = snapshot_parameters(w.model->parameters());
    w.context = workload_context(cfg);
    return w;
}

}  // namespace

workload_spec find_workload(const std::string& name, bool tiny) {
    workload_spec spec;
    if (name == "mlp_fleet") {
        spec = mlp_fleet();
    } else if (name == "vgg_fleet") {
        spec = vgg_fleet();
    } else if (name == "mlp_timeline") {
        spec = mlp_timeline();
    } else if (name == "dist_fleet") {
        spec = dist_fleet();
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    if (tiny) { shrink(spec); }
    return spec;
}

reduce::workload build_workload(const workload_spec& spec, bool traced) {
    // Set-up runs on one worker's intra-op budget, like the library's own
    // harnesses pretraining before a fleet run.
    const reduce::scoped_intra_op_threads intra(spec.gemm_threads);
    span s("setup");
    if (spec.model == model_kind::vgg) { return build_vgg(spec); }
    reduce::workload_config cfg;
    if (spec.pretrain_epochs > 0.0) { cfg.pretrain_epochs = spec.pretrain_epochs; }
    return traced ? build_mlp_traced(cfg) : reduce::make_standard_workload(cfg);
}

run_inputs make_inputs(const workload_spec& spec, const reduce::workload& w,
                       std::uint64_t seed) {
    using namespace reduce;
    run_inputs in;
    in.scenario = parse_scenario(spec.scenario);
    in.sweep.fault_rates = spec.sweep_rates;
    in.sweep.repeats = spec.sweep_repeats;
    in.sweep.max_epochs = spec.sweep_epochs;
    in.sweep.scenario = in.scenario;
    in.sweep.context = w.context;

    // A stratified lot: the chips' nominal rates are the midpoints of N
    // equal slices of [rate_lo, rate_hi] in a seed-shuffled order, and the
    // seed picks every chip's fault map (as make_fleet does, chip i's map
    // seed is mix_seed(lot seed, i + 1)). Every seed thus draws a lot of the
    // same difficulty: it moves which PEs fail, not how much retraining the
    // fleet needs on average.
    span s("fault.make_fleet");
    const std::uint64_t lot_seed = mix_seed(seed, 1);
    std::vector<double> rates(spec.chips);
    for (std::size_t i = 0; i < spec.chips; ++i) {
        rates[i] = spec.rate_lo + (spec.rate_hi - spec.rate_lo) *
                                      (static_cast<double>(i) + 0.5) /
                                      static_cast<double>(spec.chips);
    }
    rng order(mix_seed(seed, 2));
    order.shuffle(rates);
    in.fleet.reserve(spec.chips);
    for (std::size_t i = 0; i < spec.chips; ++i) {
        random_fault_config fault_cfg;
        fault_cfg.fault_rate = rates[i];
        const std::uint64_t chip_seed = mix_seed(lot_seed, i + 1);
        in.fleet.push_back(
            chip{i, chip_seed, rates[i], generate_random_faults(w.array, fault_cfg, chip_seed)});
    }
    return in;
}

std::vector<std::unique_ptr<reduce::retraining_policy>> make_policies(
    const workload_spec& spec, const reduce::resilience_table& table) {
    using namespace reduce;
    selector_config sel;
    sel.stat = statistic::max;
    sel.accuracy_target = spec.constraint;
    std::vector<std::unique_ptr<retraining_policy>> policies;
    policies.push_back(std::make_unique<reduce_policy>(table, sel, "reduce"));
    policies.push_back(std::make_unique<fixed_policy>(0.5, spec.constraint, "fixed-0.5"));
    return policies;
}

}  // namespace perfbench
