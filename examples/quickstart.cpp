/**
 * @file
 * Quickstart: build a sharded two-layer MLP with the public API, compile
 * it with the overlap pipeline, check it still computes the same values
 * (on the functional SPMD interpreter), and compare simulated step times
 * with and without the technique.
 *
 * This walks the full deliverable chain of the library:
 *   SpmdBuilder -> OverlapCompiler -> SpmdEvaluator / PodSimulator.
 */
#include <cstdio>

#include "core/overlap_compiler.h"
#include "hlo/verifier.h"
#include "interp/evaluator.h"
#include "spmd/spmd_builder.h"
#include "support/strings.h"
#include "tensor/sharding.h"

using namespace overlap;

namespace {

struct Mlp {
    std::unique_ptr<HloModule> module;
    std::vector<std::vector<Tensor>> params;
    Tensor expected;
    TensorSharding out_sharding;
};

Mlp
BuildMlp(const Mesh& mesh)
{
    // The Figure 3 two-layer MLP: activations [B, F] sharded batch-on-y
    // and feature-on-x; weights sharded so the first einsum AllGathers
    // and the second ends in a subgroup ReduceScatter.
    const int64_t kB = 16, kF = 8, kH = 16;
    Mlp mlp;
    mlp.module = std::make_unique<HloModule>("quickstart_mlp");
    mlp.module->set_mesh(mesh);
    HloComputation* comp = mlp.module->AddEntryComputation("main");
    SpmdBuilder spmd(comp, mesh);

    TensorSharding act = TensorSharding::OnDims(2, 0, 1, 1, 0);
    TensorSharding w1s = TensorSharding::OnDims(2, 0, 1, 1, 0);
    TensorSharding w2s = TensorSharding::OnDims(2, 0, 0, 1, 1);
    auto x = spmd.Parameter(0, Shape({kB, kF}), act, "x");
    auto w1 = spmd.Parameter(1, Shape({kF, kH}), w1s, "w1");
    auto w2 = spmd.Parameter(2, Shape({kH, kF}), w2s, "w2");
    auto h = spmd.Einsum(*x, *w1, "bf,fh->bh",
                         TensorSharding::OnDims(2, 0, 1, 1, 0));
    auto y = spmd.Einsum(*h, *w2, "bh,hf->bf", act);
    comp->set_root(y->local);

    Tensor gx = Tensor::Random(Shape({kB, kF}), 1);
    Tensor gw1 = Tensor::Random(Shape({kF, kH}), 2);
    Tensor gw2 = Tensor::Random(Shape({kH, kF}), 3);
    mlp.params = {ShardTensor(gx, act, mesh), ShardTensor(gw1, w1s, mesh),
                  ShardTensor(gw2, w2s, mesh)};
    Tensor hh = EinsumSpec::Parse("bf,fh->bh")->Evaluate(gx, gw1).value();
    mlp.expected =
        EinsumSpec::Parse("bh,hf->bf")->Evaluate(hh, gw2).value();
    mlp.out_sharding = act;
    return mlp;
}

bool
CheckSemantics(const Mlp& mlp, const Mesh& mesh)
{
    SpmdEvaluator evaluator(mesh);
    auto outputs = evaluator.Evaluate(*mlp.module->entry(), mlp.params);
    if (!outputs.ok()) {
        std::printf("evaluation failed: %s\n",
                    outputs.status().ToString().c_str());
        return false;
    }
    Tensor assembled(mlp.expected.shape());
    for (int64_t d = 0; d < mesh.num_devices(); ++d) {
        assembled = assembled.UpdateSlice(
            (*outputs)[static_cast<size_t>(d)],
            mlp.out_sharding.ShardOffsets(mlp.expected.shape(), mesh, d));
    }
    return assembled.AllClose(mlp.expected, 1e-3f);
}

}  // namespace

int
main()
{
    Mesh mesh(2, 4);
    std::printf("== quickstart: 2-layer MLP on an 8-chip [2,4] torus ==\n");

    // 1. Build the sharded program; show the collectives the partitioner
    //    inserted.
    Mlp mlp = BuildMlp(mesh);
    std::printf("\nper-device HLO before the overlap pipeline:\n%s\n",
                mlp.module->ToString().c_str());

    // 2. It computes the right thing.
    std::printf("functional check vs unpartitioned einsums: %s\n",
                CheckSemantics(mlp, mesh) ? "OK" : "MISMATCH");

    // 3. Compile with the paper's pipeline (forcing the rewrite: these
    //    toy shapes are far below the cost model's profitability bar).
    CompilerOptions options;
    options.decompose.use_cost_model = false;
    OverlapCompiler compiler(options);
    auto report = compiler.Compile(mlp.module.get());
    if (!report.ok()) {
        std::printf("compile failed: %s\n",
                    report.status().ToString().c_str());
        return 1;
    }
    std::printf("\noverlap pipeline: decomposed %lld collectives into "
                "%lld async permutes, %lld fusion groups\n",
                static_cast<long long>(
                    report->decompose.total_decomposed()),
                static_cast<long long>(report->async_permutes),
                static_cast<long long>(report->fusion_groups));

    // 4. Still computes the right thing.
    std::printf("functional check after decompose+schedule:      %s\n",
                CheckSemantics(mlp, mesh) ? "OK" : "MISMATCH");

    // 5. Compare simulated step time against the blocking baseline.
    HardwareSpec spec;
    PodSimulator simulator(mesh, spec);
    auto overlapped = simulator.Run(*mlp.module);
    Mlp baseline_mlp = BuildMlp(mesh);
    OverlapCompiler baseline_compiler(CompilerOptions::Baseline());
    (void)baseline_compiler.Compile(baseline_mlp.module.get());
    auto baseline = simulator.Run(*baseline_mlp.module);
    if (overlapped.ok() && baseline.ok()) {
        std::printf("\nsimulated on the TPU-v4-like pod model:\n");
        std::printf("  baseline   %s (exposed comm %s)\n",
                    HumanTime(baseline->step_seconds).c_str(),
                    HumanTime(baseline->exposed_comm_seconds).c_str());
        std::printf("  overlapped %s (exposed comm %s)\n",
                    HumanTime(overlapped->step_seconds).c_str(),
                    HumanTime(overlapped->exposed_comm_seconds).c_str());
        std::printf("(at these toy sizes fixed overheads dominate; run "
                    "the bench/ binaries for the\npaper-scale numbers)\n");
    }
    return 0;
}
