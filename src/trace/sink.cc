#include "sink.hh"

#include <array>
#include <charconv>
#include <fstream>
#include <ostream>

#include "arch/instr.hh"
#include "common/logging.hh"

namespace wg::trace {

namespace {

/** WarpLoc spellings (values match wg::WarpLoc; see sched/warp.hh). */
constexpr std::array<const char*, 4> kLocNames = {"active", "pending",
                                                 "waiting", "finished"};

const char*
locName(std::uint8_t loc)
{
    return loc < kLocNames.size() ? kLocNames[loc] : "?";
}

const char*
unitName(std::uint8_t unit)
{
    if (unit == kNoUnit)
        return nullptr;
    return unitClassName(static_cast<UnitClass>(unit));
}

/** Flush the sink buffer to the stream past this many bytes. */
constexpr std::size_t kFlushBytes = 1u << 16;

/** Append the decimal spelling of @p v (what ostream << prints). */
template <typename T>
void
appendNum(std::string& out, T v)
{
    char buf[24];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

/** Append @p key (quoted, with its comma and colon) and number @p v. */
template <typename T>
void
appendField(std::string& out, const char* key, T v)
{
    out += key;
    appendNum(out, v);
}

/** Append `,"key":value` pairs specific to the event kind. */
void
appendArgs(std::string& out, const Event& e)
{
    switch (e.kind) {
      case EventKind::Issue:
      case EventKind::GreedySwitch:
        appendField(out, ",\"warp\":", e.value);
        break;
      case EventKind::UnitBusy:
        appendField(out, ",\"idleRun\":", e.value);
        break;
      case EventKind::Gate:
        out += ",\"reason\":\"";
        out += gateReasonName(static_cast<GateReason>(e.arg));
        appendField(out, "\",\"actv\":", e.value);
        break;
      case EventKind::BetExpire:
        appendField(out, ",\"held\":", e.value);
        break;
      case EventKind::Wakeup:
        out += ",\"reason\":\"";
        out += wakeReasonName(static_cast<WakeReason>(e.arg));
        out += '"';
        break;
      case EventKind::EpochUpdate:
        appendField(out, ",\"criticals\":", static_cast<unsigned>(e.arg));
        appendField(out, ",\"window\":", e.value);
        break;
      case EventKind::WarpMigrate:
        out += ",\"loc\":\"";
        out += locName(e.arg);
        appendField(out, "\",\"warp\":", e.value);
        break;
      case EventKind::MshrFill:
      case EventKind::MshrDrain:
        appendField(out, ",\"outstanding\":", e.value);
        break;
      case EventKind::MshrReject:
        appendField(out, ",\"attempts\":", e.value);
        break;
      case EventKind::UnitIdle:
      case EventKind::WakeupDenied:
      case EventKind::WakeupDone:
      case EventKind::PrioritySwitch:
        break;
    }
}

/** Append the JSONL object of one event (no trailing newline). */
void
appendEventJson(std::string& out, SmId sm, const Event& e)
{
    appendField(out, "{\"sm\":", sm);
    appendField(out, ",\"cycle\":", e.cycle);
    out += ",\"kind\":\"";
    out += eventKindName(e.kind);
    out += '"';
    if (const char* u = unitName(e.unit)) {
        out += ",\"unit\":\"";
        out += u;
        out += '"';
        if (e.cluster != kNoCluster)
            appendField(out, ",\"cluster\":",
                        static_cast<unsigned>(e.cluster));
    }
    appendArgs(out, e);
    out += '}';
}

void
appendMeta(std::string& out, const Meta& m)
{
    auto flag = [&out](const char* key, bool v) {
        out += key;
        out += v ? "true" : "false";
    };
    appendField(out, "{\"meta\":{\"version\":", m.version);
    out += ",\"policy\":\"";
    out += m.policy;
    out += "\",\"scheduler\":\"";
    out += m.scheduler;
    appendField(out, "\",\"sms\":", m.numSms);
    appendField(out, ",\"idleDetect\":", m.idleDetect);
    appendField(out, ",\"breakEven\":", m.breakEven);
    appendField(out, ",\"wakeupDelay\":", m.wakeupDelay);
    flag(",\"adaptive\":", m.adaptive);
    appendField(out, ",\"idleDetectMin\":", m.idleDetectMin);
    appendField(out, ",\"idleDetectMax\":", m.idleDetectMax);
    appendField(out, ",\"epochLength\":", m.epochLength);
    appendField(out, ",\"criticalThreshold\":", m.criticalThreshold);
    appendField(out, ",\"decrementEpochs\":", m.decrementEpochs);
    flag(",\"gateSfu\":", m.gateSfu);
    out += "}}";
}

/**
 * Hand @p buf to @p os once it holds kFlushBytes (always when @p force):
 * the sinks build their output in one reused string instead of a stream
 * per event.
 */
void
drain(std::ostream& os, std::string& buf, bool force = false)
{
    if (force || buf.size() >= kFlushBytes) {
        os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
        buf.clear();
    }
}

/** chrome://tracing tid for an event (one lane per pipeline). */
unsigned
chromeTid(const Event& e)
{
    if (e.unit == kNoUnit)
        return 8; // control lane: scheduler / warps / MSHRs
    auto uc = static_cast<UnitClass>(e.unit);
    unsigned cluster = e.cluster == kNoCluster ? 0 : e.cluster;
    switch (uc) {
      case UnitClass::Int: return 0 + cluster;
      case UnitClass::Fp: return 2 + cluster;
      case UnitClass::Sfu: return 4;
      case UnitClass::Ldst: return 5;
    }
    return 8;
}

const char*
chromeTidName(unsigned tid)
{
    switch (tid) {
      case 0: return "INT0";
      case 1: return "INT1";
      case 2: return "FP0";
      case 3: return "FP1";
      case 4: return "SFU";
      case 5: return "LDST";
      case 8: return "control";
    }
    return "?";
}

} // namespace

const char*
sinkFormatName(SinkFormat format)
{
    switch (format) {
      case SinkFormat::Chrome: return "chrome";
      case SinkFormat::Jsonl: return "jsonl";
      case SinkFormat::Csv: return "csv";
    }
    return "?";
}

bool
parseSinkFormat(const std::string& name, SinkFormat& out)
{
    for (SinkFormat f :
         {SinkFormat::Chrome, SinkFormat::Jsonl, SinkFormat::Csv}) {
        if (name == sinkFormatName(f)) {
            out = f;
            return true;
        }
    }
    return false;
}

std::string
eventToJson(SmId sm, const Event& e)
{
    std::string out;
    appendEventJson(out, sm, e);
    return out;
}

void
writeJsonl(std::ostream& os, const Collector& collector)
{
    std::string buf;
    buf.reserve(kFlushBytes + 256);
    appendMeta(buf, collector.meta);
    buf += '\n';
    for (SmId s = 0; s < collector.numSms(); ++s) {
        const Recorder* r = collector.recorder(s);
        if (!r)
            continue;
        if (r->overwritten() > 0) {
            appendField(buf, "{\"sm\":", s);
            appendField(buf, ",\"truncated\":", r->overwritten());
            buf += "}\n";
        }
        r->forEach([&](const Event& e) {
            appendEventJson(buf, s, e);
            buf += '\n';
            drain(os, buf);
        });
    }
    drain(os, buf, true);
}

void
writeChromeTrace(std::ostream& os, const Collector& collector)
{
    std::string buf;
    buf.reserve(kFlushBytes + 512);
    buf += "{\"traceEvents\":[";
    bool first = true;
    // Start the next array element: a separator after the first.
    auto next = [&buf, &first] {
        if (!first)
            buf += ",\n";
        first = false;
    };

    for (SmId s = 0; s < collector.numSms(); ++s) {
        const Recorder* r = collector.recorder(s);
        if (!r)
            continue;
        next();
        appendField(buf, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":",
                    s);
        appendField(buf, ",\"args\":{\"name\":\"SM ", s);
        buf += "\"}}";
        for (unsigned tid : {0u, 1u, 2u, 3u, 4u, 5u, 8u}) {
            next();
            appendField(buf,
                        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":", s);
            appendField(buf, ",\"tid\":", tid);
            buf += ",\"args\":{\"name\":\"";
            buf += chromeTidName(tid);
            buf += "\"}}";
        }
        r->forEach([&](const Event& e) {
            next();
            buf += "{\"name\":\"";
            buf += eventKindName(e.kind);
            appendField(buf, "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":", e.cycle);
            appendField(buf, ",\"pid\":", s);
            appendField(buf, ",\"tid\":", chromeTid(e));
            buf += ",\"args\":{\"detail\":";
            appendEventJson(buf, s, e);
            buf += "}}";
            drain(os, buf);
        });
    }
    buf += "],\"displayTimeUnit\":\"ns\"}\n";
    drain(os, buf, true);
}

void
writeEpochCsv(std::ostream& os, const Collector& collector)
{
    const Cycle epoch_len =
        collector.meta.epochLength > 0 ? collector.meta.epochLength : 1000;

    os << "sm,epoch,start_cycle,issues_int,issues_fp,issues_sfu,"
          "issues_ldst,gates,bet_expiries,wakeups,critical_wakeups,"
          "wakeups_denied,mshr_fills,mshr_rejects,window_int,window_fp\n";

    struct EpochRow
    {
        std::array<std::uint64_t, kNumUnitClasses> issues = {};
        std::uint64_t gates = 0, betExpiries = 0, wakeups = 0;
        std::uint64_t criticals = 0, denied = 0;
        std::uint64_t mshrFills = 0, mshrRejects = 0;
        std::int64_t windowInt = -1, windowFp = -1;
    };

    for (SmId s = 0; s < collector.numSms(); ++s) {
        const Recorder* r = collector.recorder(s);
        if (!r)
            continue;
        EpochRow row;
        std::int64_t epoch = -1;
        auto flush = [&]() {
            if (epoch < 0)
                return;
            os << s << "," << epoch << ","
               << static_cast<Cycle>(epoch) * epoch_len;
            for (std::uint64_t v : row.issues)
                os << "," << v;
            os << "," << row.gates << "," << row.betExpiries << ","
               << row.wakeups << "," << row.criticals << "," << row.denied
               << "," << row.mshrFills << "," << row.mshrRejects << ",";
            if (row.windowInt >= 0)
                os << row.windowInt;
            os << ",";
            if (row.windowFp >= 0)
                os << row.windowFp;
            os << "\n";
        };
        r->forEach([&](const Event& e) {
            auto ep = static_cast<std::int64_t>(e.cycle / epoch_len);
            if (ep != epoch) {
                flush();
                epoch = ep;
                row = EpochRow();
            }
            switch (e.kind) {
              case EventKind::Issue:
                if (e.unit < kNumUnitClasses)
                    ++row.issues[e.unit];
                break;
              case EventKind::Gate: ++row.gates; break;
              case EventKind::BetExpire: ++row.betExpiries; break;
              case EventKind::Wakeup:
                ++row.wakeups;
                if (static_cast<WakeReason>(e.arg) == WakeReason::Critical)
                    ++row.criticals;
                break;
              case EventKind::WakeupDenied: ++row.denied; break;
              case EventKind::MshrFill: ++row.mshrFills; break;
              case EventKind::MshrReject: row.mshrRejects += e.value; break;
              case EventKind::EpochUpdate:
                if (e.unit == static_cast<std::uint8_t>(UnitClass::Int))
                    row.windowInt = e.value;
                else if (e.unit ==
                         static_cast<std::uint8_t>(UnitClass::Fp))
                    row.windowFp = e.value;
                break;
              default:
                break;
            }
        });
        flush();
    }
}

void
writeTrace(std::ostream& os, const Collector& collector, SinkFormat format)
{
    switch (format) {
      case SinkFormat::Chrome: writeChromeTrace(os, collector); return;
      case SinkFormat::Jsonl: writeJsonl(os, collector); return;
      case SinkFormat::Csv: writeEpochCsv(os, collector); return;
    }
    panic("writeTrace: unknown sink format");
}

void
writeTraceFile(const std::string& path, const Collector& collector,
               SinkFormat format)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open trace file '", path, "' for writing");
    writeTrace(out, collector, format);
    out.flush();
    if (!out)
        fatal("short write to trace file '", path, "'");
}

} // namespace wg::trace
