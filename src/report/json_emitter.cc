#include "report/json_emitter.hh"

#include "analysis/figures.hh"
#include "support/mini_json.hh"

namespace ppm {

namespace {

void
writeCurve(JsonWriter &w, std::string_view key,
           const std::vector<CumulativePoint> &curve)
{
    w.key(key).beginArray();
    for (const auto &p : curve) {
        w.beginObject()
            .key("high").u64(p.bucketHigh)
            .key("cumulative").general(p.cumulative)
            .endObject();
    }
    w.endArray();
}

} // namespace

std::string
toJson(const DpgStats &stats)
{
    JsonWriter w;
    w.beginObject()
        .key("workload").string(stats.workload)
        .key("predictor").string(predictorName(stats.kind))
        .key("dyn_instrs").u64(stats.dynInstrs)
        .key("nodes").u64(stats.totalNodes())
        .key("arcs").u64(stats.arcs.total())
        .key("data_nodes").u64(stats.dataNodes())
        .key("data_arcs").u64(stats.arcs.dataArcs())
        .key("gshare_accuracy").general(stats.gshareAccuracy);

    w.key("node_classes").beginObject();
    for (unsigned c = 0; c < kNumNodeClasses; ++c) {
        const auto cls = static_cast<NodeClass>(c);
        w.key(nodeClassName(cls)).u64(stats.nodes.count(cls));
    }
    w.endObject();

    w.key("arc_cells").beginObject();
    for (unsigned u = 0; u < kNumArcUses; ++u) {
        for (unsigned l = 0; l < kNumArcLabels; ++l) {
            const auto use = static_cast<ArcUse>(u);
            const auto label = static_cast<ArcLabel>(l);
            const std::uint64_t n = stats.arcs.count(use, label);
            if (n == 0)
                continue;
            w.key("<" + std::string(arcUseName(use)) + ":" +
                  std::string(arcLabelName(label)).substr(1))
                .u64(n);
        }
    }
    w.endObject();

    const Fig5Row f5 = fig5Row(stats);
    w.key("overall_pct").beginObject()
        .key("node_gen").general(f5.nodeGen)
        .key("node_prop").general(f5.nodeProp)
        .key("node_term").general(f5.nodeTerm)
        .key("arc_gen").general(f5.arcGen)
        .key("arc_prop").general(f5.arcProp)
        .key("arc_term").general(f5.arcTerm)
        .endObject();

    w.key("paths").beginObject();
    for (unsigned c = 0; c < kNumGeneratorClasses; ++c) {
        w.key(generatorClassName(static_cast<GeneratorClass>(c)))
            .u64(stats.paths.perClass[c]);
    }
    w.key("propagate_elements").u64(stats.paths.propagateElements)
        .key("saturation_events").u64(stats.paths.saturationEvents)
        .endObject();

    writeCurve(w, "tree_longest_cumulative", fig10Trees(stats));
    writeCurve(w, "influence_distance_cumulative",
               fig11Distance(stats));

    w.key("branches").beginObject();
    for (unsigned s = 0; s < kNumBranchSigs; ++s) {
        const auto sig = static_cast<BranchSig>(s);
        const std::string name(branchSigName(sig));
        w.key(name + "->p").u64(stats.branches.count(sig, true))
            .key(name + "->n").u64(stats.branches.count(sig, false));
    }
    w.endObject();

    w.key("unpredictability").beginObject();
    for (std::uint8_t mask = 1; mask < 8; ++mask) {
        if (const std::uint64_t n = stats.unpred.count(mask))
            w.key(unpredMaskName(mask)).u64(n);
    }
    w.endObject().endObject().newline();
    return w.take();
}

} // namespace ppm
