/**
 * @file
 * wgtrace — offline inspector/checker for wgsim JSONL event traces.
 *
 * Replays a trace produced with `wgsim --trace=<file>`
 * (`--trace-format=jsonl`, the default) and
 *   - prints a per-kind event summary, and
 *   - with --check, verifies the gating invariants the Warped Gates
 *     claims rest on: a gated unit never issues, a blackout holds at
 *     least break-even cycles, coordinated blackout never gates the
 *     second cluster of a type against waiting warps, and the adaptive
 *     idle-detect window follows its fast-increase/slow-decrease
 *     schedule inside [min, max].
 *
 * Reads schema version 2 (one mshr-reject per cycle carrying its
 * `attempts`) and version 1 (one mshr-reject line per refused attempt);
 * a newer version is refused rather than misread.
 *
 * Exit codes: 0 = clean, 1 = invariant violations found, 2 = usage or
 * parse errors (including an unknown future schema version).
 *
 * Examples:
 *   wgsim --bench hotspot --technique WarpedGates --trace=t.jsonl
 *   wgtrace --check t.jsonl
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <type_traits>

#include "arch/instr.hh"
#include "common/args.hh"
#include "common/json.hh"
#include "trace/check.hh"
#include "trace/sink.hh"

namespace {

using namespace wg;

/**
 * Member @p key of @p obj into @p out: a string, a boolean, or a
 * non-negative integer narrowed to the field's type. @return false
 * (leaving @p out alone) when absent or of another JSON type.
 */
template <class T>
bool
get(const Json& obj, const char* key, T& out)
{
    const Json* v = obj.find(key);
    if (v == nullptr)
        return false;
    if constexpr (std::is_same_v<T, std::string>) {
        if (!v->isString())
            return false;
        out = v->asString();
    } else if constexpr (std::is_same_v<T, bool>) {
        if (!v->isBool())
            return false;
        out = v->asBool();
    } else {
        const double d = v->asDouble();
        if (!v->isNumber() || d < 0.0 || d != std::floor(d))
            return false;
        out = static_cast<T>(v->asU64());
    }
    return true;
}

bool
parseUnitClass(const std::string& name, std::uint8_t& out)
{
    for (unsigned u = 0; u < kNumUnitClasses; ++u) {
        if (name == unitClassName(static_cast<UnitClass>(u))) {
            out = static_cast<std::uint8_t>(u);
            return true;
        }
    }
    return false;
}

/** WarpLoc spellings the sink emits (values match wg::WarpLoc). */
int
parseWarpLoc(const std::string& name)
{
    const char* names[] = {"active", "pending", "waiting", "finished"};
    for (int i = 0; i < 4; ++i)
        if (name == names[i])
            return i;
    return -1;
}

/** Read the `{"meta":{...}}` first line. @return false otherwise. */
bool
parseMeta(const std::string& line, trace::Meta& meta)
{
    Json doc;
    std::string error;
    if (!Json::parse(line, doc, error))
        return false;
    const Json* m = doc.find("meta");
    if (m == nullptr || !get(*m, "policy", meta.policy) ||
        !get(*m, "scheduler", meta.scheduler))
        return false;
    get(*m, "version", meta.version);
    get(*m, "sms", meta.numSms);
    get(*m, "idleDetect", meta.idleDetect);
    get(*m, "breakEven", meta.breakEven);
    get(*m, "wakeupDelay", meta.wakeupDelay);
    get(*m, "adaptive", meta.adaptive);
    get(*m, "idleDetectMin", meta.idleDetectMin);
    get(*m, "idleDetectMax", meta.idleDetectMax);
    get(*m, "epochLength", meta.epochLength);
    get(*m, "criticalThreshold", meta.criticalThreshold);
    get(*m, "decrementEpochs", meta.decrementEpochs);
    get(*m, "gateSfu", meta.gateSfu);
    return true;
}

/**
 * Reassemble a JSONL line into (sm, Event). @return false on a
 * malformed line (diagnostic printed by the caller).
 */
bool
parseEventLine(const Json& line, std::uint32_t version, SmId& sm,
               trace::Event& e)
{
    std::string s;
    e = trace::Event{};
    if (!get(line, "sm", sm) || !get(line, "cycle", e.cycle) ||
        !get(line, "kind", s) || !trace::parseEventKind(s.c_str(), e.kind))
        return false;
    if (get(line, "unit", s) && !parseUnitClass(s, e.unit))
        return false;
    get(line, "cluster", e.cluster);

    switch (e.kind) {
      case trace::EventKind::Gate: {
        trace::GateReason reason;
        if (!get(line, "reason", s) ||
            !trace::parseGateReason(s.c_str(), reason))
            return false;
        e.arg = static_cast<std::uint8_t>(reason);
        get(line, "actv", e.value);
        return true;
      }
      case trace::EventKind::Wakeup: {
        trace::WakeReason reason;
        if (!get(line, "reason", s) ||
            !trace::parseWakeReason(s.c_str(), reason))
            return false;
        e.arg = static_cast<std::uint8_t>(reason);
        return true;
      }
      case trace::EventKind::BetExpire:
        get(line, "held", e.value);
        return true;
      case trace::EventKind::EpochUpdate:
        return get(line, "criticals", e.arg) &&
               get(line, "window", e.value);
      case trace::EventKind::WarpMigrate: {
        const int loc = get(line, "loc", s) ? parseWarpLoc(s) : -1;
        if (loc < 0)
            return false;
        e.arg = static_cast<std::uint8_t>(loc);
        get(line, "warp", e.value);
        return true;
      }
      case trace::EventKind::Issue:
      case trace::EventKind::GreedySwitch:
        get(line, "warp", e.value);
        return true;
      case trace::EventKind::UnitBusy:
        get(line, "idleRun", e.value);
        return true;
      case trace::EventKind::MshrFill:
      case trace::EventKind::MshrDrain:
        get(line, "outstanding", e.value);
        return true;
      case trace::EventKind::MshrReject:
        e.value = 1; // version 1: one line per refused attempt
        return version < 2 || get(line, "attempts", e.value);
      default:
        return true;
    }
}

/** The whole command line, declaratively (drives parsing and --help). */
constexpr FlagSpec kFlags[] = {
    {"check", FlagKind::Bool, "", "verify the gating invariants"},
    {"quiet", FlagKind::Bool, "", "suppress the event summary"},
    {"max-report", FlagKind::Int, "20",
     "print at most this many violations (0 = all)"},
};

} // namespace

int
main(int argc, char** argv)
{
    ArgParser args("wgtrace",
                   "offline wgsim trace inspector and invariant checker; "
                   "reads the JSONL format (wgtrace <trace.jsonl>)",
                   kFlags);
    if (!args.parse(argc, argv))
        return args.helpRequested() ? 0 : 2;
    if (args.positional().size() != 1) {
        std::fprintf(stderr, "usage: wgtrace [--check] <trace.jsonl>\n");
        return 2;
    }

    const std::string& path = args.positional()[0];
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "wgtrace: cannot open '%s'\n", path.c_str());
        return 2;
    }

    std::string line;
    if (!std::getline(in, line)) {
        std::fprintf(stderr, "wgtrace: '%s' is empty\n", path.c_str());
        return 2;
    }
    trace::Meta meta;
    if (!parseMeta(line, meta)) {
        std::fprintf(stderr,
                     "wgtrace: '%s' does not start with a meta line (is "
                     "this a JSONL trace?)\n",
                     path.c_str());
        return 2;
    }
    if (meta.version < 1 || meta.version > trace::kSchemaVersion) {
        std::fprintf(stderr,
                     "wgtrace: '%s' has trace schema version %u; this "
                     "wgtrace reads versions 1-%u\n",
                     path.c_str(), meta.version, trace::kSchemaVersion);
        return 2;
    }

    trace::InvariantChecker checker(meta);
    std::uint64_t line_no = 1;
    std::uint64_t bad_lines = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty())
            continue;
        Json doc;
        std::string error;
        std::uint64_t lost = 0;
        SmId sm = 0;
        const bool parsed = Json::parse(line, doc, error);
        if (parsed && get(doc, "truncated", lost) && get(doc, "sm", sm)) {
            checker.noteTruncated(sm, lost);
            continue;
        }
        trace::Event e;
        if (!parsed || !parseEventLine(doc, meta.version, sm, e)) {
            if (++bad_lines <= 5)
                std::fprintf(stderr, "wgtrace: %s:%llu: malformed line\n",
                             path.c_str(),
                             static_cast<unsigned long long>(line_no));
            continue;
        }
        checker.feed(sm, e);
    }
    if (bad_lines > 0) {
        std::fprintf(stderr, "wgtrace: %llu malformed line(s)\n",
                     static_cast<unsigned long long>(bad_lines));
        return 2;
    }

    if (!args.getBool("quiet")) {
        std::cout << path << ": " << checker.eventCount() << " events, "
                  << meta.numSms << " SMs, policy " << meta.policy
                  << ", scheduler " << meta.scheduler << "\n";
        for (std::size_t k = 0; k < trace::kNumEventKinds; ++k) {
            auto kind = static_cast<trace::EventKind>(k);
            std::uint64_t n = checker.eventCount(kind);
            if (n == 0)
                continue;
            std::cout << "  " << trace::eventKindName(kind) << ": " << n;
            if (kind == trace::EventKind::MshrReject)
                std::cout << " (" << checker.mshrRejectAttempts()
                          << " attempts)";
            std::cout << "\n";
        }
        for (const std::string& w : checker.warnings())
            std::cout << "  warning: " << w << "\n";
    }

    if (!args.getBool("check"))
        return 0;

    const auto& violations = checker.violations();
    if (violations.empty()) {
        if (!args.getBool("quiet"))
            std::cout << "check: all gating invariants hold\n";
        return 0;
    }
    std::uint64_t limit =
        static_cast<std::uint64_t>(args.getInt("max-report"));
    std::uint64_t shown = 0;
    for (const trace::Violation& v : violations) {
        if (limit > 0 && shown++ >= limit) {
            std::cout << "... and " << violations.size() - limit
                      << " more\n";
            break;
        }
        std::cout << "VIOLATION: " << v.toString() << "\n";
    }
    std::cout << "check: " << violations.size()
              << " invariant violation(s)\n";
    return 1;
}
