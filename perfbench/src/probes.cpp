#include "probes.h"

#include <filesystem>
#include <numeric>
#include <unistd.h>

#include "core/grouped_fat_trainer.h"
#include "core/multi_mask_eval.h"
#include "data/loader.h"
#include "dist/journal.h"
#include "dist/protocol.h"
#include "fault/mask_builder.h"
#include "nn/conv_layers.h"
#include "nn/loss.h"
#include "nn/optim.h"
#include "tensor/conv.h"
#include "tensor/ops.h"
#include "trace.h"
#include "util/thread_pool.h"

namespace perfbench {

using namespace reduce;

namespace {

constexpr std::size_t probe_reps = 20;

bool is_mapped(const std::string& layer_name) {
    return layer_name == "linear" || layer_name == "conv2d";
}

}  // namespace

std::string check_sampled_group(const workload_spec& spec, workload& w, const run_inputs& in,
                                const iteration& reference) {
    const std::size_t k = std::min<std::size_t>(8, in.fleet.size());
    if (reference.runs.size() < 2) { return "no fixed-0.5 reference run"; }
    const policy_run& ref = reference.runs[1];
    const fixed_policy policy(0.5, spec.constraint, "fixed-0.5");
    std::vector<const chip*> chips(k);
    std::vector<chip_view> views(k);
    std::vector<double> rates(k);
    for (std::size_t i = 0; i < k; ++i) {
        chips[i] = &in.fleet[i];
        views[i].index = i;
        views[i].device = chips[i];
        rates[i] = effective_fault_rate(*w.model, w.array, in.fleet[i].faults, policy.rate_kind());
        views[i].effective_fault_rate = rates[i];
    }
    const std::vector<epoch_allocation> allocations = policy.plan(views);
    std::vector<const epoch_allocation*> allocs(k);
    for (std::size_t i = 0; i < k; ++i) { allocs[i] = &allocations[i]; }

    const scoped_intra_op_threads intra(spec.gemm_threads);
    grouped_chip_tuner group(*w.model, w.pretrained, w.train_data, w.test_data, w.array,
                             w.trainer_cfg);
    group.set_capture_tuned(true);
    std::vector<chip_outcome> grouped;
    {
        span s("tune_group.sample");
        s.arg("k", static_cast<double>(k));
        grouped = group.tune_group(chips, allocs, spec.constraint, rates, {});
    }
    chip_tuner serial(*w.model, w.pretrained, w.train_data, w.test_data, w.array,
                      w.trainer_cfg);
    serial.set_capture_tuned(true);
    for (std::size_t i = 0; i < k; ++i) {
        chip_outcome one;
        {
            span s("tune.sample_serial");
            one = serial.tune(*chips[i], allocations[i], spec.constraint, rates[i]);
        }
        const std::string serial_bytes = snapshot_to_bytes(serial.take_tuned());
        const model_snapshot grouped_snapshot = group.take_tuned(i);
        const std::string where = "sampled group, chip " + std::to_string(i) + ": ";
        if (!same_outcome(grouped[i], one)) { return where + "grouped outcome != serial"; }
        if (snapshot_to_bytes(grouped_snapshot) != serial_bytes) {
            return where + "grouped snapshot bytes != serial";
        }
        if (!same_outcome(one, ref.outcome.chips[i]) ||
            hash_snapshot(grouped_snapshot) != ref.snapshot_hash[i]) {
            return where + "differs from the fleet run";
        }
    }
    return "";
}

json_value run_layer_probes(const workload_spec& spec, workload& w, const run_inputs& in) {
    const std::size_t threads = spec.gemm_threads;
    const scoped_intra_op_threads intra(threads);
    const std::unique_ptr<sequential> model = clone_model(*w.model);
    restore_parameters(model->parameters(), w.pretrained);
    model->set_training(true);

    // data: the loader's batch gather.
    data_loader loader(w.train_data, w.trainer_cfg.batch_size, w.trainer_cfg.shuffle_seed);
    {
        span s("data.batch");
        const std::size_t calls = 4 * loader.steps_per_epoch();
        for (std::size_t c = 0; c < calls; ++c) { (void)loader.next_batch(); }
        s.arg("calls", static_cast<double>(calls));
    }
    loader.reset();
    const batch b = loader.next_batch();

    // nn: one training batch, layer by layer and through the whole model.
    const std::size_t layers = model->size();
    std::vector<std::string> labels(layers);
    json_array layer_info;
    for (std::size_t i = 0; i < layers; ++i) {
        const std::string name = model->layer(i).name();
        labels[i] = std::to_string(i) + "_" + name;
        json_object entry;
        entry.set("label", json_value(labels[i]));
        entry.set("mapped", json_value(is_mapped(name)));
        layer_info.push_back(json_value(std::move(entry)));
    }
    const std::vector<parameter*> params = model->parameters();
    sgd::config opt_cfg;
    opt_cfg.learning_rate = w.trainer_cfg.learning_rate;
    opt_cfg.momentum = w.trainer_cfg.momentum;
    opt_cfg.weight_decay = w.trainer_cfg.weight_decay;
    sgd optimizer(params, opt_cfg);
    std::vector<tensor> inputs(layers);
    for (std::size_t r = 0; r < probe_reps; ++r) {
        restore_parameters(params, w.pretrained);
        zero_all_grads(params);
        tensor x = b.features;
        for (std::size_t i = 0; i < layers; ++i) {
            inputs[i] = x;
            span s("nn.fwd." + labels[i]);
            x = model->layer(i).forward(x);
        }
        tensor g = cross_entropy_loss(x, b.labels).grad;
        for (std::size_t i = layers; i-- > 0;) {
            span s("nn.bwd." + labels[i]);
            g = model->layer(i).backward(g);
        }
        zero_all_grads(params);
        tensor y;
        {
            span s("nn.seq_fwd");
            y = model->forward(b.features);
        }
        const tensor grad = cross_entropy_loss(y, b.labels).grad;
        {
            span s("nn.seq_bwd");
            model->backward(grad);
        }
        {
            span s("nn.optim");
            optimizer.step();
        }
    }
    restore_parameters(params, w.pretrained);
    model->set_training(false);
    std::vector<std::size_t> rows(std::min(eval_batch_rows(w.trainer_cfg), w.test_data.size()));
    std::iota(rows.begin(), rows.end(), std::size_t{0});
    const batch eval_batch = gather_batch(w.test_data, rows);
    for (std::size_t r = 0; r < probe_reps; ++r) {
        span s("nn.eval_fwd");
        (void)model->forward(eval_batch.features);
    }
    model->set_training(true);

    // tensor: the forward GEMM / conv entry point at each mapped layer's
    // shape, at the workload's intra-op budget; the largest also at 1 thread.
    std::string largest;
    double largest_flops = 0.0;
    std::size_t largest_index = 0;
    auto call_layer = [&](std::size_t i) {
        module& layer = model->layer(i);
        const std::vector<parameter*> p = layer.parameters();
        if (auto* conv = dynamic_cast<conv2d_layer*>(&layer)) {
            (void)conv2d_forward(inputs[i], p[0]->value, p[1]->value, conv->spec());
        } else {
            (void)matmul_nt_bias(inputs[i], p[0]->value, p[1]->value);
        }
    };
    auto layer_flops = [&](std::size_t i) {
        module& layer = model->layer(i);
        const tensor& weight = layer.parameters()[0]->value;
        if (auto* conv = dynamic_cast<conv2d_layer*>(&layer)) {
            const conv2d_spec& cs = conv->spec();
            const shape_t& in_shape = inputs[i].shape();
            const double out_elems = static_cast<double>(in_shape[0]) * cs.out_channels *
                                     cs.out_h(in_shape[2]) * cs.out_w(in_shape[3]);
            return 2.0 * out_elems * static_cast<double>(cs.patch_size());
        }
        return 2.0 * static_cast<double>(inputs[i].shape()[0]) *
               static_cast<double>(weight.numel());
    };
    for (std::size_t i = 0; i < layers; ++i) {
        if (!is_mapped(model->layer(i).name())) { continue; }
        const double flops = layer_flops(i);
        if (flops > largest_flops) {
            largest_flops = flops;
            largest = labels[i];
            largest_index = i;
        }
        for (std::size_t r = 0; r < probe_reps; ++r) {
            span s("tensor.gemm." + labels[i]);
            s.arg("flops", flops);
            s.arg("threads", static_cast<double>(threads));
            call_layer(i);
        }
    }
    if (!largest.empty()) {
        const scoped_intra_op_threads one(1);
        for (std::size_t r = 0; r < probe_reps; ++r) {
            span s("tensor.gemm_1t." + largest);
            s.arg("flops", largest_flops);
            call_layer(largest_index);
        }
    }

    // pool: an empty parallel_for at the workload's budget.
    {
        constexpr std::size_t calls = 2000;
        span s("pool.dispatch");
        for (std::size_t c = 0; c < calls; ++c) {
            parallel_for(threads, [](std::size_t, std::size_t) {});
        }
        s.arg("calls", static_cast<double>(calls));
        s.arg("threads", static_cast<double>(threads));
    }

    // eval: the grouped evaluator at K=1 and K=8 over the fleet's maps.
    multi_mask_evaluator evaluator(*w.model, w.pretrained, w.test_data, w.array,
                                   w.trainer_cfg);
    for (const std::size_t k : {std::size_t{1}, std::size_t{8}}) {
        std::vector<const fault_grid*> grids;
        for (std::size_t i = 0; i < k && i < in.fleet.size(); ++i) {
            grids.push_back(&in.fleet[i].faults);
        }
        for (std::size_t r = 0; r < 5; ++r) {
            span s("eval.probe");
            s.arg("k", static_cast<double>(grids.size()));
            (void)evaluator.evaluate(grids);
        }
    }

    // fault + resilience: mask attachment and the epoch-0 evaluation a
    // Step-1 cell starts with.
    const std::unique_ptr<sequential> masked = clone_model(*w.model);
    restore_parameters(masked->parameters(), w.pretrained);
    for (std::size_t i = 0; i < std::min<std::size_t>(16, in.fleet.size()); ++i) {
        fault_state_guard guard(*masked, w.pretrained);
        {
            span s("fault.attach_masks");
            (void)attach_fault_masks(*masked, w.array, in.fleet[i].faults);
        }
        fault_aware_trainer trainer(*masked, w.train_data, w.test_data, w.trainer_cfg);
        span s("resilience.epoch0_eval");
        (void)trainer.evaluate();
    }
    return json_value(std::move(layer_info));
}

void run_dist_probes(const workload_spec& spec, workload& w, const run_inputs& in,
                     const std::string& temp_dir) {
    const scoped_intra_op_threads intra(spec.gemm_threads);
    chip_tuner tuner(*w.model, w.pretrained, w.train_data, w.test_data, w.array,
                     w.trainer_cfg);
    tuner.set_capture_tuned(true);
    epoch_allocation alloc;
    alloc.epochs = 0.5;
    const chip& c = in.fleet.front();
    const chip_outcome outcome = tuner.tune(
        c, alloc, spec.constraint,
        effective_fault_rate(*w.model, w.array, c.faults, effective_rate_kind::used_subarray));
    const json_value message =
        dist::make_chip_result(1, outcome, snapshot_to_bytes(tuner.take_tuned()));

    std::string frame;
    for (std::size_t r = 0; r < probe_reps; ++r) {
        span s("dist.encode");
        frame = dist::encode_frame(message);
        s.arg("bytes", static_cast<double>(frame.size()));
    }
    for (std::size_t r = 0; r < probe_reps; ++r) {
        span s("dist.decode");
        dist::frame_decoder decoder;
        decoder.feed(frame.data(), frame.size());
        if (decoder.next() != message) { throw std::runtime_error("frame round trip differs"); }
    }

    const std::filesystem::path dir =
        std::filesystem::path(temp_dir) / ("journal-probe-" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    {
        dist::journal journal;
        (void)journal.open(dir.string(), dist::job_kind::fleet, "perfbench-probe",
                           probe_reps);
        const json_object& fields = message.as_object();
        for (std::size_t r = 0; r < probe_reps; ++r) {
            json_object record;
            record.set("type", json_value("unit"));
            record.set("unit", json_value(r));
            record.set("outcome", fields.at("outcome"));
            record.set("snapshot", fields.at("snapshot"));
            span s("dist.journal_append");
            journal.append(json_value(std::move(record)));
        }
    }
    std::filesystem::remove_all(dir);
}

}  // namespace perfbench
