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

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "arch/instr.hh"
#include "common/args.hh"
#include "trace/check.hh"
#include "trace/sink.hh"

namespace {

using namespace wg;

/**
 * Pull the raw token after `"key":` out of a flat single-level JSON
 * object (the only shape the JSONL sink emits). Quoted values are
 * returned without their quotes. @return false when the key is absent.
 */
bool
findRaw(const std::string& line, const std::string& key, std::string& out)
{
    const std::string needle = "\"" + key + "\":";
    std::size_t pos = line.find(needle);
    if (pos == std::string::npos)
        return false;
    pos += needle.size();
    if (pos >= line.size())
        return false;
    if (line[pos] == '"') {
        std::size_t end = line.find('"', pos + 1);
        if (end == std::string::npos)
            return false;
        out = line.substr(pos + 1, end - pos - 1);
        return true;
    }
    std::size_t end = line.find_first_of(",}", pos);
    if (end == std::string::npos)
        return false;
    out = line.substr(pos, end - pos);
    return true;
}

bool
findU64(const std::string& line, const std::string& key, std::uint64_t& out)
{
    std::string raw;
    if (!findRaw(line, key, raw))
        return false;
    try {
        out = std::stoull(raw);
    } catch (...) {
        return false;
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

bool
parseMeta(const std::string& line, trace::Meta& meta)
{
    std::string s;
    std::uint64_t v = 0;
    if (findU64(line, "version", v))
        meta.version = static_cast<std::uint32_t>(v);
    if (!findRaw(line, "policy", meta.policy))
        return false;
    if (!findRaw(line, "scheduler", meta.scheduler))
        return false;
    if (findU64(line, "sms", v))
        meta.numSms = static_cast<std::uint32_t>(v);
    if (findU64(line, "idleDetect", v))
        meta.idleDetect = v;
    if (findU64(line, "breakEven", v))
        meta.breakEven = v;
    if (findU64(line, "wakeupDelay", v))
        meta.wakeupDelay = v;
    if (findRaw(line, "adaptive", s))
        meta.adaptive = s == "true";
    if (findU64(line, "idleDetectMin", v))
        meta.idleDetectMin = v;
    if (findU64(line, "idleDetectMax", v))
        meta.idleDetectMax = v;
    if (findU64(line, "epochLength", v))
        meta.epochLength = v;
    if (findU64(line, "criticalThreshold", v))
        meta.criticalThreshold = static_cast<std::uint32_t>(v);
    if (findU64(line, "decrementEpochs", v))
        meta.decrementEpochs = static_cast<std::uint32_t>(v);
    if (findRaw(line, "gateSfu", s))
        meta.gateSfu = s == "true";
    return true;
}

/**
 * Reassemble a JSONL line into (sm, Event). @return false on a
 * malformed line (diagnostic printed by the caller).
 */
bool
parseEventLine(const std::string& line, std::uint32_t version, SmId& sm,
               trace::Event& e)
{
    std::uint64_t v = 0;
    std::string s;
    if (!findU64(line, "sm", v))
        return false;
    sm = static_cast<SmId>(v);
    if (!findU64(line, "cycle", v) || !findRaw(line, "kind", s))
        return false;
    e = trace::Event{};
    e.cycle = v;
    if (!trace::parseEventKind(s.c_str(), e.kind))
        return false;

    if (findRaw(line, "unit", s) && !parseUnitClass(s, e.unit))
        return false;
    if (findU64(line, "cluster", v))
        e.cluster = static_cast<std::uint8_t>(v);

    switch (e.kind) {
      case trace::EventKind::Gate: {
        trace::GateReason reason;
        if (!findRaw(line, "reason", s) ||
            !trace::parseGateReason(s.c_str(), reason))
            return false;
        e.arg = static_cast<std::uint8_t>(reason);
        if (findU64(line, "actv", v))
            e.value = static_cast<std::uint32_t>(v);
        break;
      }
      case trace::EventKind::Wakeup: {
        trace::WakeReason reason;
        if (!findRaw(line, "reason", s) ||
            !trace::parseWakeReason(s.c_str(), reason))
            return false;
        e.arg = static_cast<std::uint8_t>(reason);
        break;
      }
      case trace::EventKind::BetExpire:
        if (findU64(line, "held", v))
            e.value = static_cast<std::uint32_t>(v);
        break;
      case trace::EventKind::EpochUpdate:
        if (!findU64(line, "criticals", v))
            return false;
        e.arg = static_cast<std::uint8_t>(v);
        if (!findU64(line, "window", v))
            return false;
        e.value = static_cast<std::uint32_t>(v);
        break;
      case trace::EventKind::WarpMigrate: {
        if (!findRaw(line, "loc", s))
            return false;
        int loc = parseWarpLoc(s);
        if (loc < 0)
            return false;
        e.arg = static_cast<std::uint8_t>(loc);
        if (findU64(line, "warp", v))
            e.value = static_cast<std::uint32_t>(v);
        break;
      }
      case trace::EventKind::Issue:
      case trace::EventKind::GreedySwitch:
        if (findU64(line, "warp", v))
            e.value = static_cast<std::uint32_t>(v);
        break;
      case trace::EventKind::UnitBusy:
        if (findU64(line, "idleRun", v))
            e.value = static_cast<std::uint32_t>(v);
        break;
      case trace::EventKind::MshrFill:
      case trace::EventKind::MshrDrain:
        if (findU64(line, "outstanding", v))
            e.value = static_cast<std::uint32_t>(v);
        break;
      case trace::EventKind::MshrReject:
        if (version < 2) {
            e.value = 1; // version 1: one line per refused attempt
            break;
        }
        if (!findU64(line, "attempts", v))
            return false;
        e.value = static_cast<std::uint32_t>(v);
        break;
      default:
        break;
    }
    return true;
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
        std::uint64_t lost = 0;
        SmId sm = 0;
        std::uint64_t sm_raw = 0;
        if (findU64(line, "truncated", lost) &&
            findU64(line, "sm", sm_raw)) {
            checker.noteTruncated(static_cast<SmId>(sm_raw), lost);
            continue;
        }
        trace::Event e;
        if (!parseEventLine(line, meta.version, sm, e)) {
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
