#include "snapshot.hh"

#include <type_traits>

#include "serve/wire_detail.hh"

namespace wg::serve::wire {

using namespace detail;

namespace {

bool
parseSchedulerName(const std::string& name, SchedulerPolicy& out)
{
    for (SchedulerPolicy p : {SchedulerPolicy::TwoLevel,
                              SchedulerPolicy::Gates,
                              SchedulerPolicy::Gto}) {
        if (name == schedulerPolicyName(p)) {
            out = p;
            return true;
        }
    }
    return false;
}

bool
parsePgPolicyName(const std::string& name, PgPolicy& out)
{
    for (PgPolicy p : {PgPolicy::None, PgPolicy::Conventional,
                       PgPolicy::NaiveBlackout,
                       PgPolicy::CoordinatedBlackout}) {
        if (name == pgPolicyName(p)) {
            out = p;
            return true;
        }
    }
    return false;
}

/**
 * False for the members of an optional section @p s does not carry:
 * the trace ring without hasTrace, the sampler without hasSampler.
 * The flags precede their sections in visitFields order, so a decoder
 * has read them by the time it asks.
 */
template <class M>
bool
sectionPresent(const SmSnapshot& s, M SmSnapshot::*m)
{
    if constexpr (std::is_same_v<M, std::vector<trace::Event>>)
        return m != &SmSnapshot::traceEvents || s.hasTrace;
    else if constexpr (std::is_same_v<M, metrics::SamplerState>)
        return m != &SmSnapshot::sampler || s.hasSampler;
    else if constexpr (std::is_same_v<M, std::uint64_t>)
        return m != &SmSnapshot::traceOverwritten || s.hasTrace;
    else
        return true;
}

} // namespace

namespace detail {

Json
encodeJson(const SmSnapshot& s)
{
    return encodeFields(s, [&](auto m) { return sectionPresent(s, m); });
}

bool
decodeJson(const Json& j, const JsonPath& path, SmSnapshot& out,
           std::string& error)
{
    return decodeFields(j, path, out, error,
                        [&](auto m) { return sectionPresent(out, m); });
}

} // namespace detail

Json
gpuSnapshotToJson(const GpuSnapshot& s)
{
    return encodeJson(s);
}

bool
gpuSnapshotFromJson(const Json& j, const std::string& path,
                    GpuSnapshot& out, std::string& error)
{
    const JsonPath root(path);
    if (!decodeJson(j, root, out, error))
        return false;
    if (out.sms.empty())
        return failAt(error, JsonPath(root, "sms"), "must not be empty");
    return true;
}

// SnapshotIdentity is not visitable (its technique and overrides are
// names, grouped under "overrides"): a new member must be carried by
// snapshotIdentityToJson, snapshotIdentityFromJson and snapshotConfig
// before this count is raised.
static_assert(aggregateArity<SnapshotIdentity>() == 7);

Json
snapshotIdentityToJson(const SnapshotIdentity& id)
{
    Json j = Json::object();
    j.set("bench", Json::string(id.bench));
    j.set("technique", Json::string(techniqueName(id.technique)));
    j.set("options", toJson(id.options));
    Json overrides = Json::object();
    overrides.set("scheduler", Json::string(id.schedulerOverride));
    overrides.set("pg", Json::string(id.pgOverride));
    overrides.set("adaptive", Json::boolean(id.adaptiveOverride));
    overrides.set("gateSfu", Json::boolean(id.gateSfuOverride));
    j.set("overrides", std::move(overrides));
    return j;
}

bool
snapshotIdentityFromJson(const Json& j, const std::string& path,
                         SnapshotIdentity& out, std::string& error)
{
    const JsonPath root(path);
    std::string technique_name;
    if (!decodeMember(j, root, "bench", out.bench, error) ||
        !decodeMember(j, root, "technique", technique_name, error))
        return false;
    if (!parseTechnique(technique_name, out.technique))
        return failAt(error, JsonPath(root, "technique"),
                      "unknown technique '" + technique_name + "'");
    const Json* options = nullptr;
    if (!getMember(j, root, "options", options, error) ||
        !fromJson(*options, out.options, error))
        return false;
    const Json* overrides = nullptr;
    if (!getMember(j, root, "overrides", overrides, error))
        return false;
    const JsonPath opath(root, "overrides");
    return decodeMember(*overrides, opath, "scheduler",
                        out.schedulerOverride, error) &&
           decodeMember(*overrides, opath, "pg", out.pgOverride,
                        error) &&
           decodeMember(*overrides, opath, "adaptive",
                        out.adaptiveOverride, error) &&
           decodeMember(*overrides, opath, "gateSfu",
                        out.gateSfuOverride, error);
}

bool
snapshotConfig(const SnapshotIdentity& id, GpuConfig& out,
               std::string& error)
{
    out = makeConfig(id.technique, id.options);
    if (!id.schedulerOverride.empty() &&
        !parseSchedulerName(id.schedulerOverride, out.sm.scheduler)) {
        error = "unknown scheduler override '" + id.schedulerOverride +
                "'";
        return false;
    }
    if (!id.pgOverride.empty() &&
        !parsePgPolicyName(id.pgOverride, out.sm.pg.policy)) {
        error = "unknown pg override '" + id.pgOverride + "'";
        return false;
    }
    if (id.adaptiveOverride)
        out.sm.pg.adaptiveIdleDetect = true;
    if (id.gateSfuOverride)
        out.sm.pg.gateSfu = true;
    const std::vector<std::string> problems = out.validate();
    if (!problems.empty()) {
        error = "invalid snapshot configuration: " + problems.front();
        return false;
    }
    return true;
}

JsonLimits
snapshotJsonLimits()
{
    JsonLimits limits;
    // One trace ring holds up to 2^20 events; leave headroom above it.
    limits.maxContainerItems = std::size_t(1) << 21;
    return limits;
}

Json
snapshotDoc(const SnapshotIdentity& id, const GpuSnapshot& snap)
{
    Json doc = makeEnvelope("snapshot");
    // The identity members are spliced into the document root so the
    // doc reads like a resultDoc header. Keep the temporary alive for
    // the whole splice: members() views into it.
    const Json identity = snapshotIdentityToJson(id);
    for (const auto& [key, value] : identity.members())
        doc.set(key, Json(value));
    doc.set("snapshot", gpuSnapshotToJson(snap));
    return doc;
}

Json
jobSnapshotDoc(const std::string& id, const SweepSpec& spec,
               const std::vector<Json>& cellDocs)
{
    Json doc = makeEnvelope("jobSnapshot");
    doc.set("id", Json::string(id));
    doc.set("sweep", toJson(spec));
    Json cells = Json::array();
    for (const Json& cell : cellDocs)
        cells.append(Json(cell));
    doc.set("cells", std::move(cells));
    return doc;
}

bool
parseJobSnapshotDoc(const Json& doc, std::string& id, SweepSpec& spec,
                    std::vector<ResultCell>& cells, std::string& error)
{
    if (!checkEnvelope(doc, "jobSnapshot", error))
        return false;
    const JsonPath root("$");
    std::string jid;
    const Json* sweep = nullptr;
    const Json* arr = nullptr;
    if (!decodeMember(doc, root, "id", jid, error) ||
        !getMember(doc, root, "sweep", sweep, error) ||
        !fromJson(*sweep, spec, error) ||
        !getMember(doc, root, "cells", arr, error))
        return false;
    if (!arr->isArray())
        return failAt(error, JsonPath(root, "cells"), "expected an array");
    cells.clear();
    for (const Json& cell : arr->items()) {
        ResultCell out;
        if (!parseResultDoc(cell, out, error))
            return false;
        cells.push_back(std::move(out));
    }
    id = std::move(jid);
    return true;
}

bool
parseSnapshotDoc(const Json& doc, SnapshotIdentity& id,
                 GpuSnapshot& snap, std::string& error)
{
    if (!checkEnvelope(doc, "snapshot", error))
        return false;
    if (!snapshotIdentityFromJson(doc, "$", id, error))
        return false;
    const Json* body = nullptr;
    if (!getMember(doc, JsonPath("$"), "snapshot", body, error))
        return false;
    if (snap.sms.size() != 0)
        snap = GpuSnapshot{};
    if (!gpuSnapshotFromJson(*body, "snapshot", snap, error))
        return false;
    if (snap.sms.size() != id.options.numSms)
        return failAt(error, JsonPath("snapshot.sms"),
                      "SM count does not match options.numSms");
    return true;
}

} // namespace wg::serve::wire
