#include "verify/fingerprint.hh"

#include "analysis/figures.hh"
#include "support/mini_json.hh"

namespace ppm::verify {

namespace {

constexpr ArcUse kUses[] = {ArcUse::Single, ArcUse::Repeated,
                            ArcUse::WriteOnce, ArcUse::DataRead};
constexpr const char *kUseKeys[] = {"single", "repeated",
                                    "write_once", "data_read"};
constexpr ArcLabel kLabels[] = {ArcLabel::NN, ArcLabel::NP,
                                ArcLabel::PN, ArcLabel::PP};

/** One predictor's entry. */
void
writePredictorEntry(JsonWriter &w, const DpgStats &s)
{
    const Fig5Row f = fig5Row(s);

    // Output accuracy over nodes whose output the model classified
    // (gen/prop/term/unpred-flow; Inert and D nodes excluded).
    const std::uint64_t gen = s.nodes.generates();
    const std::uint64_t prop = s.nodes.propagates();
    const std::uint64_t term = s.nodes.terminates();
    const std::uint64_t unp = s.nodes.count(NodeClass::UnpredFlow);
    const std::uint64_t classified = gen + prop + term + unp;
    const double outAcc =
        classified ? 100.0 * double(gen + prop) / double(classified)
                   : 0.0;

    w.beginObject()
        .key("predictor").string(std::string(1, predictorLetter(s.kind)))
        .key("output_acc_pct").fixed(outAcc, 4)
        .key("gshare_acc_pct").fixed(100.0 * s.gshareAccuracy, 4)
        .key("node_gen_pct").fixed(f.nodeGen, 4)
        .key("node_prop_pct").fixed(f.nodeProp, 4)
        .key("node_term_pct").fixed(f.nodeTerm, 4)
        .key("arc_gen_pct").fixed(f.arcGen, 4)
        .key("arc_prop_pct").fixed(f.arcProp, 4)
        .key("arc_term_pct").fixed(f.arcTerm, 4)
        .key("arcs").u64(s.arcs.total())
        .key("arc_mix").beginObject();
    for (unsigned u = 0; u < 4; ++u) {
        w.key(kUseKeys[u]).beginArray();
        for (ArcLabel label : kLabels)
            w.u64(s.arcs.count(kUses[u], label));
        w.endArray();
    }
    w.endObject().endObject();
}

/** Fetch a finite number member or report. */
const JsonValue *
numberMember(const JsonValue &obj, const char *key,
             std::vector<std::string> &errors)
{
    const JsonValue *v = obj.find(key);
    if (!v || !v->isNumber()) {
        errors.push_back(std::string("missing numeric '") + key +
                         "'");
        return nullptr;
    }
    return v;
}

void
checkPct(const JsonValue &obj, const char *key,
         std::vector<std::string> &errors)
{
    if (const JsonValue *v = numberMember(obj, key, errors)) {
        if (v->number < 0.0 || v->number > 100.0)
            errors.push_back(std::string(key) + " out of [0,100]: " +
                             std::to_string(v->number));
    }
}

} // namespace

std::string
fingerprintJson(const std::string &source, std::uint64_t seed,
                const std::vector<DpgStats> &runs)
{
    JsonWriter w;
    w.beginObject()
        .key("schema").string("ppm-fingerprint-v1")
        .key("source").string(source)
        .key("seed").u64(seed)
        .key("dyn_instrs").u64(runs.empty() ? 0 : runs.front().dynInstrs)
        .key("predictors").beginArray();
    for (const DpgStats &run : runs)
        writePredictorEntry(w, run);
    w.endArray().endObject();
    return w.take();
}

std::vector<std::string>
validateFingerprint(const JsonValue &fp)
{
    std::vector<std::string> errors;
    if (!fp.isObject()) {
        errors.push_back("fingerprint is not an object");
        return errors;
    }
    const JsonValue *schema = fp.find("schema");
    if (!schema || !schema->isString() ||
        schema->str != "ppm-fingerprint-v1")
        errors.push_back("bad or missing fingerprint schema tag");
    const JsonValue *source = fp.find("source");
    if (!source || !source->isString() || source->str.empty())
        errors.push_back("missing 'source'");
    if (const JsonValue *v = numberMember(fp, "dyn_instrs", errors)) {
        if (v->number < 0)
            errors.push_back("negative dyn_instrs");
    }
    numberMember(fp, "seed", errors);

    const JsonValue *preds = fp.find("predictors");
    if (!preds || !preds->isArray() || preds->array.empty()) {
        errors.push_back("missing non-empty 'predictors' array");
        return errors;
    }
    for (std::size_t i = 0; i < preds->array.size(); ++i) {
        const JsonValue &p = preds->array[i];
        const std::string at =
            "predictors[" + std::to_string(i) + "]: ";
        std::vector<std::string> local;
        if (!p.isObject()) {
            errors.push_back(at + "not an object");
            continue;
        }
        const JsonValue *kind = p.find("predictor");
        if (!kind || !kind->isString() ||
            (kind->str != "L" && kind->str != "S" &&
             kind->str != "C"))
            local.push_back("predictor letter not in {L,S,C}");
        checkPct(p, "output_acc_pct", local);
        checkPct(p, "gshare_acc_pct", local);
        checkPct(p, "node_gen_pct", local);
        checkPct(p, "node_prop_pct", local);
        checkPct(p, "node_term_pct", local);
        checkPct(p, "arc_gen_pct", local);
        checkPct(p, "arc_prop_pct", local);
        checkPct(p, "arc_term_pct", local);
        // The three shares partition a subset of the element total.
        const JsonValue *ng = p.find("node_gen_pct");
        const JsonValue *np = p.find("node_prop_pct");
        const JsonValue *nt = p.find("node_term_pct");
        if (ng && np && nt && ng->isNumber() && np->isNumber() &&
            nt->isNumber() &&
            ng->number + np->number + nt->number > 100.0001)
            local.push_back("node gen+prop+term exceeds 100%");
        if (const JsonValue *arcs = numberMember(p, "arcs", local)) {
            if (arcs->number < 0)
                local.push_back("negative arc total");
        }
        const JsonValue *mix = p.find("arc_mix");
        if (!mix || !mix->isObject()) {
            local.push_back("missing 'arc_mix' object");
        } else {
            double mixTotal = 0.0;
            for (const char *useKey : kUseKeys) {
                const JsonValue *row = mix->find(useKey);
                if (!row || !row->isArray() ||
                    row->array.size() != 4) {
                    local.push_back(
                        std::string("arc_mix.") + useKey +
                        " is not a 4-element array");
                    continue;
                }
                for (const JsonValue &cell : row->array) {
                    if (!cell.isNumber() || cell.number < 0) {
                        local.push_back(std::string("arc_mix.") +
                                        useKey +
                                        " has a bad cell");
                        break;
                    }
                    mixTotal += cell.number;
                }
            }
            const JsonValue *arcs = p.find("arcs");
            if (local.empty() && arcs && arcs->isNumber() &&
                mixTotal != arcs->number)
                local.push_back("arc_mix cells do not sum to the "
                                "arc total");
        }
        for (const std::string &e : local)
            errors.push_back(at + e);
    }
    return errors;
}

std::vector<std::string>
validateCorpus(const JsonValue &doc)
{
    std::vector<std::string> errors;
    if (!doc.isObject()) {
        errors.push_back("corpus is not an object");
        return errors;
    }
    const JsonValue *schema = doc.find("schema");
    if (!schema || !schema->isString() ||
        schema->str != "ppm-fuzz-corpus-v1")
        errors.push_back("bad or missing corpus schema tag");
    const JsonValue *programs = doc.find("programs");
    if (!programs || !programs->isArray()) {
        errors.push_back("missing 'programs' array");
        return errors;
    }
    for (std::size_t i = 0; i < programs->array.size(); ++i) {
        for (const std::string &e :
             validateFingerprint(programs->array[i]))
            errors.push_back("programs[" + std::to_string(i) +
                             "]: " + e);
    }
    return errors;
}

std::string
corpusJson(const std::vector<std::string> &fingerprints)
{
    // One program per line: the committed corpus diffs line by line.
    JsonWriter w;
    w.beginObject()
        .key("schema").string("ppm-fuzz-corpus-v1")
        .key("programs").beginArray();
    for (const std::string &fp : fingerprints)
        w.raw("\n" + fp);
    w.newline().endArray().endObject().newline();
    return w.take();
}

} // namespace ppm::verify
