#include "src/slicing/update_functions.h"

#include <map>

#include "src/slicing/dim_analysis.h"
#include "src/support/logging.h"
#include "src/support/string_util.h"
#include "src/tensor/kernel_math.h"

namespace spacefusion {

float UpdateFactor::Multiplier(float old_v, float new_v) const {
  switch (prim) {
    case FactorPrim::kExpNeg:
      return sf_exp(static_cast<float>(power) * (old_v - new_v));
    case FactorPrim::kIdent: {
      float ratio = new_v / old_v;
      float result = 1.0f;
      int p = power >= 0 ? power : -power;
      for (int i = 0; i < p; ++i) {
        result *= ratio;
      }
      return power >= 0 ? result : 1.0f / result;
    }
  }
  return 1.0f;
}

std::string UpdateFactor::ToString(const Graph& graph) const {
  const std::string& src = graph.op(source).name;
  if (prim == FactorPrim::kExpNeg) {
    return StrCat("exp(", power, "*(", src, ".old - ", src, ".new))");
  }
  return StrCat("(", src, ".new/", src, ".old)^", power);
}

bool TemporalPlan::AnyUpdate() const {
  for (const ReductionAggregation& agg : aggregations) {
    if (agg.NeedsUpdate()) {
      return true;
    }
  }
  return false;
}

std::string TemporalPlan::ToString(const Graph& graph) const {
  std::ostringstream out;
  for (const ReductionAggregation& agg : aggregations) {
    out << graph.op(agg.op).name << ": combiner=" << ReduceOpKindName(agg.combiner);
    if (agg.NeedsUpdate()) {
      out << " update=";
      for (const UpdateFactor& f : agg.update) {
        out << f.ToString(graph) << " ";
      }
    }
    out << "\n";
  }
  return out.str();
}

namespace {

// Dataflow state of one tensor w.r.t. a source reduction r.
struct Influence {
  enum class Kind {
    kUnrelated,  // value does not depend on r
    kSource,     // this *is* r's result (direct broadcast)
    kShifted,    // value = pure_part - r (additive; only exp() can absorb it)
    kFactored,   // value = pure_part * prod(g_i(r)^p_i)
    kFailed,     // influence not postposable
  };
  Kind kind = Kind::kUnrelated;
  std::vector<UpdateFactor> factors;  // for kFactored
};

// Merges factor lists (product of factors).
std::vector<UpdateFactor> MergeFactors(const std::vector<UpdateFactor>& a,
                                       const std::vector<UpdateFactor>& b, int b_power_scale) {
  std::vector<UpdateFactor> out = a;
  for (UpdateFactor f : b) {
    f.power *= b_power_scale;
    // Collapse with an existing primitive of the same shape/source.
    bool merged = false;
    for (UpdateFactor& existing : out) {
      if (existing.prim == f.prim && existing.source == f.source) {
        existing.power += f.power;
        merged = true;
        break;
      }
    }
    if (!merged) {
      out.push_back(f);
    }
  }
  // Drop cancelled primitives.
  std::vector<UpdateFactor> cleaned;
  for (const UpdateFactor& f : out) {
    if (f.power != 0) {
      cleaned.push_back(f);
    }
  }
  return cleaned;
}

bool SameFactors(const std::vector<UpdateFactor>& a, const std::vector<UpdateFactor>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (const UpdateFactor& fa : a) {
    bool found = false;
    for (const UpdateFactor& fb : b) {
      if (fa.prim == fb.prim && fa.source == fb.source && fa.power == fb.power) {
        found = true;
        break;
      }
    }
    if (!found) {
      return false;
    }
  }
  return true;
}

// Forward-propagates the influence of reduction op `source` through the
// graph; returns per-tensor influence states.
std::vector<Influence> PropagateInfluence(const Graph& graph, const SmgBuildResult& built,
                                          OpId source, DimId sliced_dim) {
  std::vector<Influence> state(graph.tensors().size());
  const Op& src_op = graph.op(source);
  state[static_cast<size_t>(src_op.output)].kind = Influence::Kind::kSource;

  const Smg& smg = built.smg;

  for (const Op& op : graph.ops()) {
    if (op.id <= source) {
      continue;  // topological order: nothing before the source is influenced
    }
    Influence& out = state[static_cast<size_t>(op.output)];

    std::vector<const Influence*> ins;
    ins.reserve(op.inputs.size());
    bool any_influence = false;
    bool any_failed = false;
    for (TensorId in : op.inputs) {
      const Influence& inf = state[static_cast<size_t>(in)];
      ins.push_back(&inf);
      if (inf.kind != Influence::Kind::kUnrelated) {
        any_influence = true;
      }
      if (inf.kind == Influence::Kind::kFailed) {
        any_failed = true;
      }
    }
    if (!any_influence) {
      out.kind = Influence::Kind::kUnrelated;
      continue;
    }
    if (any_failed) {
      out.kind = Influence::Kind::kFailed;
      continue;
    }

    auto fail = [&out]() { out.kind = Influence::Kind::kFailed; };

    switch (op.kind) {
      case OpKind::kUnary: {
        const Influence& x = *ins[0];
        if (op.attrs.unary == UnaryKind::kExp && x.kind == Influence::Kind::kShifted) {
          // exp(pure - r) = exp(pure) * exp(-r): the broadcast is postposed
          // into a multiplicative factor (Fig. 8 "b.sub postposition").
          out.kind = Influence::Kind::kFactored;
          UpdateFactor f;
          f.prim = FactorPrim::kExpNeg;
          f.source = source;
          f.power = 1;
          out.factors = {f};
        } else if (x.kind == Influence::Kind::kFactored && op.attrs.unary == UnaryKind::kNeg) {
          out = x;  // -(g*x) = g*(-x)
        } else if (x.kind == Influence::Kind::kFactored &&
                   op.attrs.unary == UnaryKind::kSquare) {
          out.kind = Influence::Kind::kFactored;
          out.factors = MergeFactors(x.factors, x.factors, 1);  // g^2
        } else if (x.kind == Influence::Kind::kFactored &&
                   op.attrs.unary == UnaryKind::kRecip) {
          out.kind = Influence::Kind::kFactored;
          out.factors = MergeFactors({}, x.factors, -1);
        } else {
          fail();
        }
        break;
      }
      case OpKind::kBinary: {
        const Influence& a = *ins[0];
        const Influence& b = *ins[1];
        switch (op.attrs.binary) {
          case BinaryKind::kSub:
            // pure - r: the canonical pre-exp shift.
            if (a.kind == Influence::Kind::kUnrelated && b.kind == Influence::Kind::kSource) {
              out.kind = Influence::Kind::kShifted;
            } else if (a.kind == Influence::Kind::kFactored &&
                       b.kind == Influence::Kind::kFactored &&
                       SameFactors(a.factors, b.factors)) {
              out = a;  // g*x - g*y = g*(x-y)
            } else {
              fail();
            }
            break;
          case BinaryKind::kAdd:
            if (a.kind == Influence::Kind::kFactored && b.kind == Influence::Kind::kFactored &&
                SameFactors(a.factors, b.factors)) {
              out = a;
            } else {
              fail();
            }
            break;
          case BinaryKind::kMul: {
            std::vector<UpdateFactor> factors;
            bool ok = true;
            for (const Influence* side : {&a, &b}) {
              if (side->kind == Influence::Kind::kSource) {
                UpdateFactor f;
                f.prim = FactorPrim::kIdent;
                f.source = source;
                f.power = 1;
                factors = MergeFactors(factors, {f}, 1);
              } else if (side->kind == Influence::Kind::kFactored) {
                factors = MergeFactors(factors, side->factors, 1);
              } else if (side->kind != Influence::Kind::kUnrelated) {
                ok = false;
              }
            }
            if (ok) {
              out.kind = Influence::Kind::kFactored;
              out.factors = std::move(factors);
            } else {
              fail();
            }
            break;
          }
          case BinaryKind::kDiv: {
            std::vector<UpdateFactor> factors;
            bool ok = true;
            // Numerator contributes factors with +1, denominator with -1.
            const Influence* sides[2] = {&a, &b};
            for (int side_i = 0; side_i < 2 && ok; ++side_i) {
              int scale = side_i == 0 ? 1 : -1;
              const Influence& side = *sides[side_i];
              if (side.kind == Influence::Kind::kSource) {
                UpdateFactor f;
                f.prim = FactorPrim::kIdent;
                f.source = source;
                f.power = 1;
                factors = MergeFactors(factors, {f}, scale);
              } else if (side.kind == Influence::Kind::kFactored) {
                factors = MergeFactors(factors, side.factors, scale);
              } else if (side.kind != Influence::Kind::kUnrelated) {
                ok = false;
              }
            }
            if (ok) {
              out.kind = Influence::Kind::kFactored;
              out.factors = std::move(factors);
            } else {
              fail();
            }
            break;
          }
          case BinaryKind::kMax:
            fail();
            break;
        }
        break;
      }
      case OpKind::kReduce:
      case OpKind::kMatMul: {
        const Mapping* a2o = nullptr;
        for (MappingId mid : smg.outgoing(built.op_space[static_cast<size_t>(op.id)])) {
          const Mapping& m = smg.mapping(mid);
          if (m.kind == MappingKind::kAllToOne) {
            a2o = &m;
          }
        }
        bool along_sliced = a2o != nullptr && a2o->dim == sliced_dim;
        if (along_sliced) {
          // This is itself a running reduction of the temporal loop. Any
          // factor arriving at its *inputs* becomes an update factor for it
          // (collected below); its *output* is an independent running state
          // variable whose drift is handled by its own update function, so
          // the source's influence must not propagate through it.
          out.kind = Influence::Kind::kUnrelated;
        } else {
          // A reduction along a different dim cannot, in general, commute
          // with the factor (the factor may vary along that dim).
          fail();
        }
        break;
      }
    }
  }
  return state;
}

}  // namespace

StatusOr<TemporalPlan> DeriveTemporalPlan(const Graph& graph, const SmgBuildResult& built,
                                          DimId dim) {
  const Smg& smg = built.smg;
  DimAnalysis analysis = AnalyzeDim(smg, dim);

  TemporalPlan plan;
  plan.dim = dim;

  if (analysis.all_to_ones.empty()) {
    return plan;  // only One-to-Alls: plain streaming, nothing to aggregate
  }

  // Outputs that extend along the sliced dim are written slice-by-slice as
  // the temporal loop streams. That is only exact if the slice values are
  // final when written, i.e. the output must not depend on a running
  // reduction along the dim (a standalone softmax output, for example,
  // would need every earlier slice rescaled when the running sum grows).
  {
    std::vector<bool> tainted(graph.tensors().size(), false);
    for (MappingId mid : analysis.all_to_ones) {
      tainted[static_cast<size_t>(graph.op(smg.mapping(mid).op).output)] = true;
    }
    for (const Op& op : graph.ops()) {
      for (TensorId in : op.inputs) {
        if (tainted[static_cast<size_t>(in)]) {
          tainted[static_cast<size_t>(op.output)] = true;
          break;
        }
      }
    }
    for (const TensorInfo& t : graph.tensors()) {
      if (t.kind == TensorKind::kOutput && tainted[static_cast<size_t>(t.id)] &&
          built.AxisOfDim(t.id, dim) >= 0) {
        return Unsupported(StrCat("output ", t.name, " streams along dim ", smg.dim(dim).name,
                                  " but depends on a running reduction; slices would be stale"));
      }
    }
  }

  // Base aggregations: each reduction combines with its own kind.
  std::vector<OpId> reduction_ops;
  for (MappingId mid : analysis.all_to_ones) {
    const Mapping& m = smg.mapping(mid);
    ReductionAggregation agg;
    agg.op = m.op;
    switch (m.reduce) {
      case ReduceOpKind::kMax:
        agg.combiner = ReduceOpKind::kMax;
        break;
      case ReduceOpKind::kSum:
      case ReduceOpKind::kDot:
        agg.combiner = ReduceOpKind::kSum;
        break;
      case ReduceOpKind::kMean:
        agg.combiner = ReduceOpKind::kSum;
        agg.finalize_divide_by_extent = true;
        break;
    }
    plan.aggregations.push_back(agg);
    reduction_ops.push_back(m.op);
  }

  if (analysis.cls == DimClass::kIndependentA2O) {
    return plan;  // Simple Aggregate suffices
  }
  SF_CHECK(analysis.cls == DimClass::kDependentA2O);

  // Update-then-Aggregate: for every earlier reduction, postpose its
  // broadcast influence and attach the resulting update factors to every
  // later reduction it reaches.
  for (size_t j = 0; j < reduction_ops.size(); ++j) {
    OpId source = reduction_ops[j];
    std::vector<Influence> influence = PropagateInfluence(graph, built, source, dim);
    for (size_t i = 0; i < reduction_ops.size(); ++i) {
      if (reduction_ops[i] == source) {
        continue;
      }
      const Op& target = graph.op(reduction_ops[i]);
      // The influence that flows *into* the target reduction.
      bool influenced = false;
      std::vector<UpdateFactor> factors;
      for (TensorId in : target.inputs) {
        const Influence& inf = influence[static_cast<size_t>(in)];
        if (inf.kind == Influence::Kind::kUnrelated) {
          continue;
        }
        if (inf.kind != Influence::Kind::kFactored) {
          return Unsupported(StrCat("broadcast postposition dead-ends between ",
                                    graph.op(source).name, " and ", target.name, " along dim ",
                                    smg.dim(dim).name));
        }
        influenced = true;
        factors = MergeFactors(factors, inf.factors, 1);
      }
      if (influenced) {
        // A max-combining reduction cannot absorb multiplicative updates.
        if (plan.aggregations[i].combiner == ReduceOpKind::kMax) {
          return Unsupported(StrCat("running-max reduction ", target.name,
                                    " depends on earlier reduction ", graph.op(source).name,
                                    "; no update function exists"));
        }
        plan.aggregations[i].update =
            MergeFactors(plan.aggregations[i].update, factors, 1);
      }
    }
  }
  return plan;
}

}  // namespace spacefusion
