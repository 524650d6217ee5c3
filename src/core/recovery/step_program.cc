#include "core/recovery/step_program.h"

#include "hlo/builder.h"
#include "interp/evaluator.h"
#include "support/strings.h"
#include "tensor/sharding.h"

namespace overlap {
namespace {

/** Splits a global tensor into one shard per device of `mesh`. */
std::vector<Tensor>
ShardTensor(const Tensor& global, const TensorSharding& sharding,
            const Mesh& mesh)
{
    std::vector<Tensor> shards;
    shards.reserve(static_cast<size_t>(mesh.num_devices()));
    Shape shard_shape = sharding.ShardShape(global.shape(), mesh);
    for (int64_t d = 0; d < mesh.num_devices(); ++d) {
        shards.push_back(
            global.Slice(sharding.ShardOffsets(global.shape(), mesh, d),
                         shard_shape.dims()));
    }
    return shards;
}

/** Zero-pads dim-0 (and for W also dim-1) up to `padded` rows. */
Tensor
PadRows(const Tensor& logical, int64_t padded, bool pad_cols_too)
{
    int64_t rank = logical.shape().rank();
    std::vector<int64_t> low(static_cast<size_t>(rank), 0);
    std::vector<int64_t> high(static_cast<size_t>(rank), 0);
    high[0] = padded - logical.shape().dim(0);
    if (pad_cols_too) high[1] = padded - logical.shape().dim(1);
    return logical.Pad(low, high, 0.0f);
}

/** The fixed weight W [S, S], derived from the spec alone. */
Tensor
ElasticWeight(const ElasticProgramSpec& spec)
{
    return Tensor::Random(
        Shape({spec.logical_rows, spec.logical_rows}), spec.data_seed + 1);
}

}  // namespace

int64_t
PaddedRows(int64_t logical_rows, int64_t ring)
{
    return (logical_rows + ring - 1) / ring * ring;
}

Tensor
InitialElasticState(const ElasticProgramSpec& spec)
{
    return Tensor::Random(Shape({spec.logical_rows, spec.feature}),
                          spec.data_seed + 2);
}

StatusOr<ElasticProgram>
BuildElasticProgram(const ElasticProgramSpec& spec, const Mesh& mesh,
                    const CompilerOptions& options, const Tensor& state)
{
    if (spec.logical_rows < 1 || spec.feature < 1) {
        return InvalidArgument("elastic program extents must be >= 1");
    }
    if (mesh.num_axes() != 1 || mesh.num_devices() < 2) {
        return InvalidArgument(
            "elastic step program needs a 1-D mesh of >= 2 devices");
    }
    if (state.shape().rank() != 2 ||
        state.shape().dim(0) != spec.logical_rows ||
        state.shape().dim(1) != spec.feature) {
        return InvalidArgument(
            StrCat("elastic state must be [", spec.logical_rows, ",",
                   spec.feature, "], got ", state.shape().ToString()));
    }

    ElasticProgram program;
    program.spec = spec;
    program.mesh = mesh;
    const int64_t n = mesh.num_devices();
    program.padded_rows = PaddedRows(spec.logical_rows, n);
    const int64_t shard = program.padded_rows / n;

    program.module = std::make_unique<HloModule>("elastic_step");
    program.module->set_mesh(mesh);
    HloComputation* comp = program.module->AddEntryComputation("main");
    HloBuilder b(comp);
    auto* w = b.Parameter(0, Shape({shard, program.padded_rows}), "w");
    auto* x = b.Parameter(1, Shape({shard, spec.feature}), "x");
    auto* gathered = b.AllGather(x, /*dim=*/0, mesh.Groups(0));
    auto* product = b.Einsum(w, gathered, "ij,jk->ik");
    auto* scale = b.ConstantScalar(
        1.0f / static_cast<float>(spec.logical_rows));
    comp->set_root(
        b.Multiply(product, b.Broadcast(scale, product->shape())));

    OverlapCompiler compiler(options);
    auto report = compiler.Compile(program.module.get());
    if (!report.ok()) return report.status();
    program.compile = std::move(report).value();

    TensorSharding row_sharded = TensorSharding::OnDim(2, 0, 0);
    program.w_shards = ShardTensor(
        PadRows(ElasticWeight(spec), program.padded_rows,
                /*pad_cols_too=*/true),
        row_sharded, mesh);
    program.x_shards = ShardTensor(
        PadRows(state, program.padded_rows, /*pad_cols_too=*/false),
        row_sharded, mesh);
    return program;
}

Status
AdvanceElasticState(ElasticProgram* program, const EvalOptions& options)
{
    std::vector<std::vector<Tensor>> params = {program->w_shards,
                                               program->x_shards};
    SpmdEvaluator evaluator(program->mesh, options);
    auto outputs = evaluator.Evaluate(*program->module->entry(), params);
    if (!outputs.ok()) return outputs.status();
    program->x_shards = std::move(outputs).value();
    return Status::Ok();
}

StatusOr<Tensor>
LogicalElasticState(const ElasticProgram& program)
{
    if (program.x_shards.empty()) {
        return FailedPrecondition("elastic program has no state shards");
    }
    Tensor global = Tensor::Concatenate(program.x_shards, /*dim=*/0);
    if (global.shape().dim(0) != program.padded_rows) {
        return Internal("elastic state shards do not cover the mesh");
    }
    return global.Slice({0, 0},
                        {program.spec.logical_rows, program.spec.feature});
}

}  // namespace overlap
