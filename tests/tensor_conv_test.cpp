// Tests for convolution/pooling primitives: im2col geometry, conv2d against
// a direct reference, adjoint consistency of col2im, pooling behaviour, and
// the structural-zero tap skip pinned bitwise against a full lowering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "tensor/conv.h"
#include "tensor/gemm.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "tensor/workspace.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace reduce {
namespace {

tensor random_tensor(shape_t shape, rng& gen) {
    tensor t(std::move(shape));
    uniform_init(t, -1.0f, 1.0f, gen);
    return t;
}

// Direct (quadruple-loop) convolution reference.
tensor reference_conv2d(const tensor& input, const tensor& weight, const tensor& bias,
                        const conv2d_spec& spec) {
    const std::size_t batch = input.extent(0);
    const std::size_t in_h = input.extent(2);
    const std::size_t in_w = input.extent(3);
    const std::size_t oh = spec.out_h(in_h);
    const std::size_t ow = spec.out_w(in_w);
    tensor out({batch, spec.out_channels, oh, ow});
    for (std::size_t n = 0; n < batch; ++n) {
        for (std::size_t oc = 0; oc < spec.out_channels; ++oc) {
            for (std::size_t oy = 0; oy < oh; ++oy) {
                for (std::size_t ox = 0; ox < ow; ++ox) {
                    float acc = bias.empty() ? 0.0f : bias[oc];
                    for (std::size_t ic = 0; ic < spec.in_channels; ++ic) {
                        for (std::size_t ky = 0; ky < spec.kernel_h; ++ky) {
                            for (std::size_t kx = 0; kx < spec.kernel_w; ++kx) {
                                const std::ptrdiff_t iy =
                                    static_cast<std::ptrdiff_t>(oy * spec.stride + ky) -
                                    static_cast<std::ptrdiff_t>(spec.padding);
                                const std::ptrdiff_t ix =
                                    static_cast<std::ptrdiff_t>(ox * spec.stride + kx) -
                                    static_cast<std::ptrdiff_t>(spec.padding);
                                if (iy < 0 || ix < 0 ||
                                    iy >= static_cast<std::ptrdiff_t>(in_h) ||
                                    ix >= static_cast<std::ptrdiff_t>(in_w)) {
                                    continue;
                                }
                                acc += input.at4(n, ic, static_cast<std::size_t>(iy),
                                                 static_cast<std::size_t>(ix)) *
                                       weight.at4(oc, ic, ky, kx);
                            }
                        }
                    }
                    out.at4(n, oc, oy, ox) = acc;
                }
            }
        }
    }
    return out;
}

TEST(Conv2dSpec, OutputGeometry) {
    conv2d_spec spec{3, 8, 3, 3, 1, 1};
    EXPECT_EQ(spec.out_h(8), 8u);  // same padding
    EXPECT_EQ(spec.out_w(8), 8u);
    spec.stride = 2;
    spec.padding = 0;
    EXPECT_EQ(spec.out_h(7), 3u);
    EXPECT_EQ(spec.patch_size(), 27u);
}

TEST(Conv2dSpec, RejectsKernelLargerThanInput) {
    const conv2d_spec spec{1, 1, 5, 5, 1, 0};
    EXPECT_THROW(spec.out_h(4), error);
}

TEST(Im2col, IdentityKernelExtractsPixels) {
    // 1x1 kernel, stride 1: columns are just the flattened image.
    rng gen(1);
    const tensor image = random_tensor({2, 3, 3}, gen);
    const conv2d_spec spec{2, 1, 1, 1, 1, 0};
    const tensor cols = im2col(image, spec);
    EXPECT_EQ(cols.shape(), shape_t({2, 9}));
    for (std::size_t c = 0; c < 2; ++c) {
        for (std::size_t i = 0; i < 9; ++i) {
            EXPECT_EQ(cols.at2(c, i), image[c * 9 + i]);
        }
    }
}

TEST(Im2col, PaddingProducesZeros) {
    const tensor image({1, 1, 1}, std::vector<float>{5.0f});
    const conv2d_spec spec{1, 1, 3, 3, 1, 1};
    const tensor cols = im2col(image, spec);
    // 3x3 kernel over a padded 1x1 image: center tap sees 5, others 0.
    EXPECT_EQ(cols.shape(), shape_t({9, 1}));
    EXPECT_EQ(cols.at2(4, 0), 5.0f);
    double total = 0.0;
    for (const float v : cols.data()) { total += v; }
    EXPECT_DOUBLE_EQ(total, 5.0);
}

TEST(Im2col, RejectsWrongChannelCount) {
    const tensor image({2, 4, 4});
    const conv2d_spec spec{3, 1, 3, 3, 1, 1};
    EXPECT_THROW(im2col(image, spec), error);
}

TEST(Col2im, IsAdjointOfIm2col) {
    // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
    // property that makes conv backward correct.
    rng gen(2);
    const conv2d_spec spec{2, 1, 3, 3, 2, 1};
    const std::size_t in_h = 5;
    const std::size_t in_w = 7;
    const tensor x = random_tensor({2, in_h, in_w}, gen);
    const tensor cols = im2col(x, spec);
    const tensor y = random_tensor(cols.shape(), gen);
    const tensor back = col2im(y, spec, in_h, in_w);

    double lhs = 0.0;
    for (std::size_t i = 0; i < cols.numel(); ++i) {
        lhs += static_cast<double>(cols[i]) * y[i];
    }
    double rhs = 0.0;
    for (std::size_t i = 0; i < x.numel(); ++i) {
        rhs += static_cast<double>(x[i]) * back[i];
    }
    EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Conv2dForward, MatchesDirectReference) {
    rng gen(3);
    const conv2d_spec spec{3, 4, 3, 3, 1, 1};
    const tensor input = random_tensor({2, 3, 6, 6}, gen);
    const tensor weight = random_tensor({4, 3, 3, 3}, gen);
    const tensor bias = random_tensor({4}, gen);
    EXPECT_TRUE(conv2d_forward(input, weight, bias, spec)
                    .allclose(reference_conv2d(input, weight, bias, spec), 1e-4f));
}

TEST(Conv2dForward, NoBias) {
    rng gen(4);
    const conv2d_spec spec{1, 2, 3, 3, 1, 0};
    const tensor input = random_tensor({1, 1, 5, 5}, gen);
    const tensor weight = random_tensor({2, 1, 3, 3}, gen);
    EXPECT_TRUE(conv2d_forward(input, weight, tensor(), spec)
                    .allclose(reference_conv2d(input, weight, tensor(), spec), 1e-4f));
}

TEST(Conv2dForward, RejectsMismatchedWeight) {
    const conv2d_spec spec{3, 4, 3, 3, 1, 1};
    const tensor input({1, 3, 6, 6});
    const tensor weight({4, 2, 3, 3});  // wrong in_channels
    EXPECT_THROW(conv2d_forward(input, weight, tensor(), spec), error);
}

TEST(Conv2dBackward, BiasGradIsOutputSum) {
    rng gen(5);
    const conv2d_spec spec{2, 3, 3, 3, 1, 1};
    const tensor input = random_tensor({2, 2, 4, 4}, gen);
    const tensor weight = random_tensor({3, 2, 3, 3}, gen);
    const tensor grad_out = random_tensor({2, 3, 4, 4}, gen);
    const conv2d_grads grads = conv2d_backward(input, weight, grad_out, spec);
    for (std::size_t oc = 0; oc < 3; ++oc) {
        double expected = 0.0;
        for (std::size_t n = 0; n < 2; ++n) {
            for (std::size_t y = 0; y < 4; ++y) {
                for (std::size_t x = 0; x < 4; ++x) { expected += grad_out.at4(n, oc, y, x); }
            }
        }
        EXPECT_NEAR(grads.grad_bias[oc], expected, 1e-4);
    }
}

TEST(Conv2dBackward, ShapesMatchInputs) {
    rng gen(6);
    const conv2d_spec spec{2, 3, 3, 3, 2, 1};
    const tensor input = random_tensor({1, 2, 7, 5}, gen);
    const tensor weight = random_tensor({3, 2, 3, 3}, gen);
    const tensor out = conv2d_forward(input, weight, tensor(), spec);
    const conv2d_grads grads = conv2d_backward(input, weight, out, spec);
    EXPECT_EQ(grads.grad_input.shape(), input.shape());
    EXPECT_EQ(grads.grad_weight.shape(), weight.shape());
    EXPECT_EQ(grads.grad_bias.shape(), shape_t({3}));
}

TEST(MaxPool, ForwardPicksMaxima) {
    tensor input({1, 1, 2, 4}, std::vector<float>{1, 5, 2, 0,
                                                  3, 4, 8, 7});
    const pool2d_result r = max_pool2d_forward(input, pool2d_spec{2, 2});
    EXPECT_EQ(r.output.shape(), shape_t({1, 1, 1, 2}));
    EXPECT_EQ(r.output[0], 5.0f);
    EXPECT_EQ(r.output[1], 8.0f);
}

TEST(MaxPool, BackwardRoutesToArgmax) {
    tensor input({1, 1, 2, 2}, std::vector<float>{1, 9, 3, 2});
    const pool2d_result r = max_pool2d_forward(input, pool2d_spec{2, 2});
    tensor grad_out({1, 1, 1, 1}, std::vector<float>{4.0f});
    const tensor grad_in = max_pool2d_backward(grad_out, r.argmax, input.shape());
    EXPECT_EQ(grad_in[1], 4.0f);  // the 9 at flat index 1
    EXPECT_EQ(grad_in[0], 0.0f);
    EXPECT_EQ(grad_in[2], 0.0f);
}

TEST(MaxPool, StrideSmallerThanKernel) {
    tensor input({1, 1, 3, 3}, std::vector<float>{1, 2, 3,
                                                  4, 5, 6,
                                                  7, 8, 9});
    const pool2d_result r = max_pool2d_forward(input, pool2d_spec{2, 1});
    EXPECT_EQ(r.output.shape(), shape_t({1, 1, 2, 2}));
    EXPECT_EQ(r.output[0], 5.0f);
    EXPECT_EQ(r.output[3], 9.0f);
}

TEST(MaxPool, RejectsOversizedKernel) {
    const tensor input({1, 1, 2, 2});
    EXPECT_THROW(max_pool2d_forward(input, pool2d_spec{3, 1}), error);
}

TEST(GlobalAvgPool, ForwardAndBackward) {
    tensor input({1, 2, 2, 2},
                 std::vector<float>{1, 2, 3, 4, 10, 20, 30, 40});
    const tensor out = global_avg_pool_forward(input);
    EXPECT_EQ(out.shape(), shape_t({1, 2}));
    EXPECT_FLOAT_EQ(out[0], 2.5f);
    EXPECT_FLOAT_EQ(out[1], 25.0f);
    tensor grad_out({1, 2}, std::vector<float>{4.0f, 8.0f});
    const tensor grad_in = global_avg_pool_backward(grad_out, input.shape());
    EXPECT_FLOAT_EQ(grad_in[0], 1.0f);   // 4 / 4 elements
    EXPECT_FLOAT_EQ(grad_in[4], 2.0f);   // 8 / 4 elements
}

// Parameterized sweep: conv2d == direct reference across geometries.
struct conv_case {
    std::size_t in_c, out_c, k, stride, pad, h, w;
};

class ConvGeometries : public ::testing::TestWithParam<conv_case> {};

TEST_P(ConvGeometries, ForwardMatchesReference) {
    const conv_case p = GetParam();
    rng gen(p.in_c * 100 + p.out_c * 10 + p.k + p.stride + p.pad);
    const conv2d_spec spec{p.in_c, p.out_c, p.k, p.k, p.stride, p.pad};
    const tensor input = random_tensor({2, p.in_c, p.h, p.w}, gen);
    const tensor weight = random_tensor({p.out_c, p.in_c, p.k, p.k}, gen);
    const tensor bias = random_tensor({p.out_c}, gen);
    EXPECT_TRUE(conv2d_forward(input, weight, bias, spec)
                    .allclose(reference_conv2d(input, weight, bias, spec), 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(Geometries, ConvGeometries,
                         ::testing::Values(conv_case{1, 1, 1, 1, 0, 4, 4},
                                           conv_case{2, 3, 3, 1, 1, 5, 5},
                                           conv_case{3, 2, 3, 2, 1, 7, 6},
                                           conv_case{1, 4, 5, 1, 2, 8, 8},
                                           conv_case{2, 2, 2, 2, 0, 6, 6}));

// ---- structural-zero taps: skip == full lowering, byte for byte ----------
//
// The references below lower EVERY patch row (im2col_batch), multiply with
// the plain GEMMs and scatter through col2im_batch — the conv path with no
// skip at all. conv2d_forward / conv2d_backward_acc skip the all-padding
// rows and must match them to the last bit, NaN/Inf and signed zeros
// included, at any chunking and any --gemm-threads.

bool same_bytes(const tensor& a, const tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.raw(), b.raw(), a.numel() * sizeof(float)) == 0;
}

tensor full_forward_ref(const tensor& input, const tensor& weight, const tensor& bias,
                        const conv2d_spec& spec) {
    const std::size_t batch = input.extent(0);
    const std::size_t in_h = input.extent(2);
    const std::size_t in_w = input.extent(3);
    const std::size_t plane = spec.out_h(in_h) * spec.out_w(in_w);
    const std::size_t cols = batch * plane;
    const std::size_t out_c = spec.out_channels;
    std::vector<float> lowered(spec.patch_size() * cols);
    std::vector<float> out2d(out_c * cols);
    im2col_batch(input.raw(), batch, in_h, in_w, spec, lowered.data());
    gemm_nn(out_c, cols, spec.patch_size(), weight.raw(), spec.patch_size(), lowered.data(),
            cols, out2d.data(), cols, /*accumulate=*/false, workspace::local());
    tensor out({batch, out_c, spec.out_h(in_h), spec.out_w(in_w)});
    for (std::size_t n = 0; n < batch; ++n) {
        for (std::size_t oc = 0; oc < out_c; ++oc) {
            const float b = bias.empty() ? 0.0f : bias[oc];
            for (std::size_t i = 0; i < plane; ++i) {
                out.raw()[(n * out_c + oc) * plane + i] = out2d[oc * cols + n * plane + i] + b;
            }
        }
    }
    return out;
}

/// Full-lowering backward with the documented chunk split: images per
/// chunk = budget / ((2*patch + out_c) * plane floats), clamped to [1, N].
void full_backward_ref(const tensor& input, const tensor& weight, const tensor& grad_output,
                       const conv2d_spec& spec, tensor& gin, tensor& gw, tensor& gb) {
    const std::size_t batch = input.extent(0);
    const std::size_t in_h = input.extent(2);
    const std::size_t in_w = input.extent(3);
    const std::size_t patch = spec.patch_size();
    const std::size_t out_c = spec.out_channels;
    const std::size_t plane = spec.out_h(in_h) * spec.out_w(in_w);
    const std::size_t image_elems = spec.in_channels * in_h * in_w;
    const std::size_t per_image = (2 * patch + out_c) * plane * sizeof(float);
    const std::size_t chunk =
        std::clamp<std::size_t>(conv_lowering_budget_bytes() / per_image, 1, batch);
    workspace& ws = workspace::local();
    for (std::size_t n0 = 0; n0 < batch; n0 += chunk) {
        const std::size_t nb = std::min(chunk, batch - n0);
        const std::size_t cols = nb * plane;
        std::vector<float> lowered(patch * cols);
        im2col_batch(input.raw() + n0 * image_elems, nb, in_h, in_w, spec, lowered.data());
        std::vector<float> dy(out_c * cols);
        for (std::size_t oc = 0; oc < out_c; ++oc) {
            for (std::size_t n = 0; n < nb; ++n) {
                std::memcpy(dy.data() + oc * cols + n * plane,
                            grad_output.raw() + ((n0 + n) * out_c + oc) * plane,
                            plane * sizeof(float));
            }
        }
        gemm_nt(out_c, patch, cols, dy.data(), cols, lowered.data(), cols, gw.raw(), patch,
                /*accumulate=*/true, ws);
        for (std::size_t oc = 0; oc < out_c; ++oc) {
            float acc = 0.0f;
            for (std::size_t i = 0; i < cols; ++i) { acc += dy[oc * cols + i]; }
            gb.raw()[oc] += acc;
        }
        std::vector<float> gradcols(patch * cols);
        gemm_tn(patch, cols, out_c, weight.raw(), patch, dy.data(), cols, gradcols.data(), cols,
                /*accumulate=*/false, ws);
        col2im_batch(gradcols.data(), nb, in_h, in_w, spec, gin.raw() + n0 * image_elems);
    }
}

struct skip_case {
    std::size_t in_c, out_c, k, stride, pad, h, w, batch;
};

std::ostream& operator<<(std::ostream& os, const skip_case& c) {
    return os << c.in_c << "->" << c.out_c << " k" << c.k << " s" << c.stride << " p" << c.pad
              << " " << c.h << "x" << c.w << " n" << c.batch;
}

/// The dead-tap patch row of (channel c, tap (0, 0)): out of bounds
/// everywhere for every geometry below that has dead taps at all.
std::size_t corner_row(const conv2d_spec& spec, std::size_t c) {
    return c * spec.kernel_h * spec.kernel_w;
}

bool has_dead_rows(const conv2d_spec& spec, std::size_t h, std::size_t w) {
    return conv_active_patch_rows(spec, h, w).size() < spec.patch_size();
}

/// Forward + backward of one case under the current thread budget and
/// lowering budget, against the full-lowering references. Gradients start
/// from a pre-filled state holding non-zero values and -0.
void expect_skip_matches_full(const skip_case& c, const tensor& input, const tensor& weight,
                              const tensor& bias, const tensor& grad_output,
                              const std::string& label) {
    const conv2d_spec spec{c.in_c, c.out_c, c.k, c.k, c.stride, c.pad};
    EXPECT_TRUE(same_bytes(conv2d_forward(input, weight, bias, spec),
                           full_forward_ref(input, weight, bias, spec)))
        << "forward " << c << " " << label;

    rng gen(7);
    tensor gin_prefill = random_tensor(input.shape(), gen);
    tensor gw_prefill = random_tensor(weight.shape(), gen);
    for (std::size_t i = 0; i < gw_prefill.numel(); i += 3) { gw_prefill.raw()[i] = -0.0f; }
    tensor gb_prefill = random_tensor({c.out_c}, gen);
    gb_prefill.raw()[0] = -0.0f;

    tensor gin = gin_prefill, gw = gw_prefill, gb = gb_prefill;
    conv2d_backward_acc(input, weight, grad_output, spec, gin, gw, gb);
    tensor rin = gin_prefill, rw = gw_prefill, rb = gb_prefill;
    full_backward_ref(input, weight, grad_output, spec, rin, rw, rb);
    EXPECT_TRUE(same_bytes(gin, rin)) << "dX " << c << " " << label;
    EXPECT_TRUE(same_bytes(gw, rw)) << "dW " << c << " " << label;
    EXPECT_TRUE(same_bytes(gb, rb)) << "db " << c << " " << label;
}

class ConvTapSkip : public ::testing::TestWithParam<skip_case> {};

TEST_P(ConvTapSkip, ForwardAndBackwardMatchFullLoweringBitwise) {
    const skip_case c = GetParam();
    const conv2d_spec spec{c.in_c, c.out_c, c.k, c.k, c.stride, c.pad};
    rng gen(c.in_c * 1000 + c.out_c * 100 + c.h * 10 + c.w);
    const tensor input = random_tensor({c.batch, c.in_c, c.h, c.w}, gen);
    const tensor weight = random_tensor({c.out_c, c.in_c, c.k, c.k}, gen);
    const tensor bias = random_tensor({c.out_c}, gen);
    const tensor grad_output =
        random_tensor({c.batch, c.out_c, spec.out_h(c.h), spec.out_w(c.w)}, gen);

    // Budgets: the default (one chunk), one image per chunk, and two images
    // per backward chunk (an uneven tail for odd batches).
    const std::size_t two_images =
        2 * (2 * spec.patch_size() + c.out_c) * spec.out_h(c.h) * spec.out_w(c.w) *
        sizeof(float);
    for (const std::size_t budget : {conv_lowering_budget_bytes(), std::size_t{1}, two_images}) {
        const std::size_t previous = set_conv_lowering_budget_bytes(budget);
        for (const std::size_t threads : {1u, 2u, 8u}) {
            const scoped_intra_op_threads scope(threads);
            const std::string label =
                "budget " + std::to_string(budget) + " threads " + std::to_string(threads);
            expect_skip_matches_full(c, input, weight, bias, grad_output, label);
            expect_skip_matches_full(c, input, weight, tensor(), grad_output, label + " no-bias");
        }
        set_conv_lowering_budget_bytes(previous);
    }
}

TEST_P(ConvTapSkip, NonFiniteOperandsMatchFullLoweringBitwise) {
    const skip_case c = GetParam();
    const conv2d_spec spec{c.in_c, c.out_c, c.k, c.k, c.stride, c.pad};
    rng gen(c.in_c * 1000 + c.out_c * 100 + c.h * 10 + c.w + 1);
    const tensor input = random_tensor({c.batch, c.in_c, c.h, c.w}, gen);
    const tensor weight = random_tensor({c.out_c, c.in_c, c.k, c.k}, gen);
    const tensor bias = random_tensor({c.out_c}, gen);
    const tensor grad_output =
        random_tensor({c.batch, c.out_c, spec.out_h(c.h), spec.out_w(c.w)}, gen);
    const std::size_t patch = spec.patch_size();
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();

    // Inf / NaN in a dead-tap weight: the full chain multiplies it by the
    // padding zeros, which poisons the output with NaN.
    tensor w_inf = weight;
    w_inf.raw()[1 * patch + corner_row(spec, 0)] = inf;
    tensor w_nan = weight;
    w_nan.raw()[0 * patch + corner_row(spec, c.in_c - 1)] = nan;
    // NaN and Inf in dY: the full dW chain turns the dead columns NaN.
    tensor dy_nan = grad_output;
    dy_nan.raw()[grad_output.numel() / 2] = nan;
    tensor dy_inf = grad_output;
    dy_inf.raw()[0] = -inf;

    for (const std::size_t threads : {1u, 2u, 8u}) {
        const scoped_intra_op_threads scope(threads);
        const std::string at = " threads " + std::to_string(threads);
        expect_skip_matches_full(c, input, w_inf, bias, grad_output, "Inf weight" + at);
        expect_skip_matches_full(c, input, w_nan, bias, grad_output, "NaN weight" + at);
        expect_skip_matches_full(c, input, weight, bias, dy_nan, "NaN dY" + at);
        expect_skip_matches_full(c, input, weight, bias, dy_inf, "-Inf dY" + at);
    }
    if (has_dead_rows(spec, c.h, c.w)) {
        // The poisoning really reaches the output: a live skip would drop it.
        const tensor out = conv2d_forward(input, w_inf, bias, spec);
        const std::size_t plane = spec.out_h(c.h) * spec.out_w(c.w);
        EXPECT_TRUE(std::isnan(out.raw()[1 * plane])) << c;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvTapSkip,
    ::testing::Values(skip_case{3, 5, 3, 1, 1, 1, 1, 5},    // 1x1: 8 of 9 taps dead
                      skip_case{32, 20, 3, 1, 1, 1, 1, 3},  // patch 288 > one KC panel
                      skip_case{4, 6, 3, 1, 1, 2, 2, 4},    // 2x2: every tap live
                      skip_case{3, 4, 3, 1, 1, 3, 3, 3},    // odd 3x3
                      skip_case{3, 4, 3, 1, 1, 1, 3, 5},    // 1x3: top/bottom rows dead
                      skip_case{2, 3, 3, 2, 1, 2, 2, 5},    // stride 2 on 2x2: row/col 0 dead
                      skip_case{3, 5, 3, 2, 1, 5, 5, 3},    // stride 2, odd 5x5
                      skip_case{2, 4, 5, 1, 2, 2, 2, 3}));  // 5x5 kernel on 2x2

TEST(ConvTapSkip, LargeShapeFansOutAndMatchesFullLowering) {
    // Wide enough that the lowering, scatter and GEMMs all fan out over
    // the intra-op pool (the small cases above stay below the thresholds),
    // with 4 of 9 taps live per channel.
    const skip_case c{16, 16, 3, 2, 1, 2, 2, 2048};
    const conv2d_spec spec{c.in_c, c.out_c, c.k, c.k, c.stride, c.pad};
    ASSERT_TRUE(has_dead_rows(spec, c.h, c.w));
    rng gen(2048);
    const tensor input = random_tensor({c.batch, c.in_c, c.h, c.w}, gen);
    const tensor weight = random_tensor({c.out_c, c.in_c, c.k, c.k}, gen);
    const tensor bias = random_tensor({c.out_c}, gen);
    const tensor grad_output = random_tensor({c.batch, c.out_c, 1, 1}, gen);
    for (const std::size_t threads : {1u, 2u, 8u}) {
        const scoped_intra_op_threads scope(threads);
        expect_skip_matches_full(c, input, weight, bias, grad_output,
                                 "threads " + std::to_string(threads));
    }
}

}  // namespace
}  // namespace reduce
