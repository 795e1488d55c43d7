#include "wire.hh"

#include "serve/wire_detail.hh"
#include "workload/profile.hh"

namespace wg::serve::wire {

namespace detail {

std::string
JsonPath::str() const
{
    if (parent_ == nullptr)
        return std::string(root_);
    std::string s = parent_->str();
    s += '.';
    if (key_ != nullptr)
        s += key_;
    else
        s += std::to_string(index_);
    return s;
}

bool
failAt(std::string& error, const JsonPath& path, const std::string& what)
{
    error = path.str() + ": " + what;
    return false;
}

bool
getMember(const Json& obj, const JsonPath& path, const char* key,
          const Json*& out, std::string& error)
{
    if (!obj.isObject())
        return failAt(error, path, "expected an object");
    out = obj.find(key);
    if (out == nullptr)
        return failAt(error, path,
                      std::string("missing member '") + key + "'");
    return true;
}

bool
decodeU64(const Json& j, const JsonPath& path, std::uint64_t& out,
          std::string& error)
{
    if (!j.isNumber() || j.asDouble() < 0)
        return failAt(error, path, "expected a non-negative number");
    out = j.asU64();
    return true;
}

Json
encodeJson(const Histogram& h)
{
    Json j = Json::object();
    j.set("maxBin", Json::number(h.maxBin()));
    Json bins = Json::array();
    for (std::uint64_t b = 0; b <= h.maxBin(); ++b)
        bins.append(Json::number(h.bin(b)));
    j.set("bins", std::move(bins));
    j.set("overflow", Json::number(h.overflow()));
    j.set("total", Json::number(h.total()));
    j.set("sum", Json::number(h.sum()));
    return j;
}

bool
decodeJson(const Json& j, const JsonPath& path, Histogram& out,
           std::string& error)
{
    std::uint64_t max_bin = 0;
    std::uint64_t overflow = 0;
    std::uint64_t total = 0;
    std::uint64_t sum = 0;
    if (!decodeMember(j, path, "maxBin", max_bin, error) ||
        !decodeMember(j, path, "overflow", overflow, error) ||
        !decodeMember(j, path, "total", total, error) ||
        !decodeMember(j, path, "sum", sum, error))
        return false;
    if (max_bin > 1 << 20)
        return failAt(error, JsonPath(path, "maxBin"),
                      "implausibly large");
    std::vector<std::uint64_t> bins;
    if (!decodeMember(j, path, "bins", bins, error))
        return false;
    if (bins.size() != max_bin + 1)
        return failAt(error, JsonPath(path, "bins"),
                      "expected exactly " + std::to_string(max_bin + 1) +
                          " elements, got " +
                          std::to_string(bins.size()));
    std::uint64_t binned = 0;
    for (std::uint64_t b : bins)
        binned += b;
    if (binned + overflow != total)
        return failAt(error, path,
                      "total does not equal sum(bins) + overflow");
    out = Histogram::fromRaw(max_bin, std::move(bins), overflow, total,
                             sum);
    return true;
}

Json
makeEnvelope(const char* type)
{
    Json doc = Json::object();
    doc.set("wire", Json::number(kSchemaVersion));
    doc.set("type", Json::string(type));
    return doc;
}

} // namespace detail

using namespace detail;

bool
checkEnvelope(const Json& doc, const std::string& type,
              std::string& error)
{
    const JsonPath root("$");
    if (!doc.isObject())
        return failAt(error, root, "expected an object document");
    const Json* v = doc.find("wire");
    if (v == nullptr || !v->isNumber())
        return failAt(error, JsonPath(root, "wire"),
                      "missing schema version");
    if (v->asU64() < kMinSchemaVersion || v->asU64() > kSchemaVersion) {
        error = "$.wire: unsupported schema version " +
                std::to_string(v->asU64()) + " (this build speaks " +
                std::to_string(kMinSchemaVersion) + ".." +
                std::to_string(kSchemaVersion) + ")";
        return false;
    }
    std::string t;
    if (!decodeMember(doc, root, "type", t, error))
        return false;
    if (t != type)
        return failAt(error, JsonPath(root, "type"),
                      "expected '" + type + "', got '" + t + "'");
    return true;
}

bool
parseTechnique(const std::string& name, Technique& out)
{
    for (Technique t : allTechniques()) {
        if (name == techniqueName(t)) {
            out = t;
            return true;
        }
    }
    return false;
}

Json
toJson(const ExperimentOptions& opts)
{
    Json j = Json::object();
    j.set("numSms",
          Json::number(static_cast<std::uint64_t>(opts.numSms)));
    j.set("seed", Json::number(opts.seed));
    j.set("idleDetect", Json::number(opts.idleDetect));
    j.set("breakEven", Json::number(opts.breakEven));
    j.set("wakeupDelay", Json::number(opts.wakeupDelay));
    return j;
}

bool
fromJson(const Json& j, ExperimentOptions& out, std::string& error)
{
    const JsonPath path("options");
    std::uint64_t num_sms = 0;
    if (!decodeMember(j, path, "numSms", num_sms, error) ||
        !decodeMember(j, path, "seed", out.seed, error) ||
        !decodeMember(j, path, "idleDetect", out.idleDetect, error) ||
        !decodeMember(j, path, "breakEven", out.breakEven, error) ||
        !decodeMember(j, path, "wakeupDelay", out.wakeupDelay, error))
        return false;
    if (num_sms == 0 || num_sms > 4096)
        return failAt(error, JsonPath(path, "numSms"),
                      "must be in [1, 4096]");
    out.numSms = static_cast<unsigned>(num_sms);
    return true;
}

Json
toJson(const SweepSpec& spec)
{
    Json j = Json::object();
    j.set("benches", encodeJson(spec.benches));
    Json techniques = Json::array();
    for (Technique t : spec.techniques)
        techniques.append(Json::string(techniqueName(t)));
    j.set("techniques", std::move(techniques));
    if (spec.options)
        j.set("options", toJson(*spec.options));
    return j;
}

bool
fromJson(const Json& j, SweepSpec& out, std::string& error)
{
    const JsonPath path("sweep");
    std::vector<std::string> bench_names;
    if (!decodeMember(j, path, "benches", bench_names, error))
        return false;
    if (bench_names.empty())
        return failAt(error, JsonPath(path, "benches"),
                      "must not be empty");
    std::vector<std::string> technique_names;
    if (!decodeMember(j, path, "techniques", technique_names, error))
        return false;
    const JsonPath tpath(path, "techniques");
    if (technique_names.empty())
        return failAt(error, tpath, "must not be empty");
    std::vector<Technique> techs(technique_names.size());
    for (std::size_t i = 0; i < techs.size(); ++i)
        if (!parseTechnique(technique_names[i], techs[i]))
            return failAt(error, JsonPath(tpath, i),
                          "unknown technique");
    std::optional<ExperimentOptions> options;
    if (const Json* o = j.find("options")) {
        ExperimentOptions parsed;
        if (!fromJson(*o, parsed, error))
            return false;
        options = parsed;
    }
    out = SweepSpec(std::move(bench_names), std::move(techs),
                    std::move(options));
    return true;
}

Json
optionsDoc(const ExperimentOptions& opts)
{
    Json doc = makeEnvelope("options");
    doc.set("options", toJson(opts));
    return doc;
}

bool
parseOptionsDoc(const Json& doc, ExperimentOptions& out,
                std::string& error)
{
    const Json* body = nullptr;
    return checkEnvelope(doc, "options", error) &&
           getMember(doc, JsonPath("$"), "options", body, error) &&
           fromJson(*body, out, error);
}

Json
sweepDoc(const SweepSpec& spec)
{
    Json doc = makeEnvelope("sweep");
    doc.set("sweep", toJson(spec));
    return doc;
}

bool
parseSweepDoc(const Json& doc, SweepSpec& out, std::string& error)
{
    const Json* body = nullptr;
    return checkEnvelope(doc, "sweep", error) &&
           getMember(doc, JsonPath("$"), "sweep", body, error) &&
           fromJson(*body, out, error);
}

// SimResult is not visitable: resultDoc and parseResultDoc name its
// members by hand (the idle histograms are rebuilt from the aggregate).
// A new member must be carried by both, and registered by toStatSet in
// metrics/registry.cc, before this count is raised.
static_assert(aggregateArity<SimResult>() == 11);

Json
resultDoc(const std::string& bench, Technique technique,
          const ExperimentOptions& opts, const SimResult& result)
{
    Json doc = makeEnvelope("result");
    doc.set("bench", Json::string(bench));
    doc.set("technique", Json::string(techniqueName(technique)));
    doc.set("options", toJson(opts));
    Json body = Json::object();
    body.set("cycles", Json::number(result.cycles));
    body.set("totalSmCycles", Json::number(result.totalSmCycles));
    body.set("smCycles", encodeJson(result.smCycles));
    body.set("aggregate", encodeJson(result.aggregate));
    Json energy = Json::object();
    energy.set("int", encodeJson(result.intEnergy));
    energy.set("fp", encodeJson(result.fpEnergy));
    energy.set("sfu", encodeJson(result.sfuEnergy));
    energy.set("ldst", encodeJson(result.ldstEnergy));
    body.set("energy", std::move(energy));
    doc.set("result", std::move(body));
    return doc;
}

bool
parseResultDoc(const Json& doc, ResultCell& out, std::string& error)
{
    if (!checkEnvelope(doc, "result", error))
        return false;
    const JsonPath root("$");
    std::string technique_name;
    if (!decodeMember(doc, root, "bench", out.bench, error) ||
        !decodeMember(doc, root, "technique", technique_name, error))
        return false;
    if (!parseTechnique(technique_name, out.technique))
        return failAt(error, JsonPath(root, "technique"),
                      "unknown technique '" + technique_name + "'");
    const Json* options = nullptr;
    if (!getMember(doc, root, "options", options, error) ||
        !fromJson(*options, out.options, error))
        return false;

    // Rebuild the full configuration the same way the runner derives
    // it; reject (never abort on) configs this build finds invalid.
    SimResult fresh;
    out.result = std::move(fresh);
    out.result.config = makeConfig(out.technique, out.options);
    {
        std::vector<std::string> problems = out.result.config.validate();
        if (!problems.empty())
            return failAt(error, JsonPath(root, "options"),
                          "invalid configuration: " + problems.front());
    }

    const Json* body = nullptr;
    if (!getMember(doc, root, "result", body, error))
        return false;
    const JsonPath path("result");
    SimResult& r = out.result;
    if (!decodeMember(*body, path, "cycles", r.cycles, error) ||
        !decodeMember(*body, path, "totalSmCycles", r.totalSmCycles,
                      error) ||
        !decodeMember(*body, path, "smCycles", r.smCycles, error))
        return false;
    if (r.smCycles.size() != out.options.numSms)
        return failAt(error, JsonPath(path, "smCycles"),
                      "length does not match options.numSms");
    const JsonPath epath(path, "energy");
    const Json* energy = nullptr;
    if (!decodeMember(*body, path, "aggregate", r.aggregate, error) ||
        !getMember(*body, path, "energy", energy, error) ||
        !decodeMember(*energy, epath, "int", r.intEnergy, error) ||
        !decodeMember(*energy, epath, "fp", r.fpEnergy, error) ||
        !decodeMember(*energy, epath, "sfu", r.sfuEnergy, error) ||
        !decodeMember(*energy, epath, "ldst", r.ldstEnergy, error))
        return false;

    // The per-type idle histograms are pure aggregations (Gpu::run
    // builds them the same way); rebuilding keeps the wire format
    // non-redundant and the two views impossible to disagree.
    const auto& cl = r.aggregate.clusters;
    for (std::size_t type = 0; type < 2; ++type) {
        if (cl[type][0].idleHist.maxBin() !=
            cl[type][1].idleHist.maxBin())
            return failAt(error, JsonPath(path, "aggregate.clusters"),
                          "cluster idleHist maxBin mismatch");
    }
    r.intIdleHist = cl[0][0].idleHist;
    r.intIdleHist.merge(cl[0][1].idleHist);
    r.fpIdleHist = cl[1][0].idleHist;
    r.fpIdleHist.merge(cl[1][1].idleHist);
    return true;
}

std::string
canonicalKey(const SweepSpec& spec)
{
    return toJson(spec).dump();
}

} // namespace wg::serve::wire
