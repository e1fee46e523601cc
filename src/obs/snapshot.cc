#include "obs/snapshot.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "exec/seed.hh"
#include "support/json.hh"

namespace capo::obs {

namespace {

/** JSON-escape a string (the subset our strict reader accepts). */
std::string
quoted(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            out += c;
        }
    }
    out += "\"";
    return out;
}

std::string
numberText(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

void
emitStat(std::ostream &out, const char *indent, const char *key,
         const Stat &stat, bool trailing_comma)
{
    out << indent << "\"" << key << "\": {\"mean\": "
        << numberText(stat.mean) << ", \"ci95\": "
        << numberText(stat.ci95) << ", \"n\": " << stat.n << "}"
        << (trailing_comma ? "," : "") << "\n";
}

Stat
parseStat(const support::JsonValue &value)
{
    Stat stat;
    stat.mean = value.num("mean");
    stat.ci95 = value.num("ci95");
    stat.n = static_cast<std::size_t>(value.num("n"));
    return stat;
}

} // namespace

std::string
snapshotFileName(const std::string &label)
{
    return "BENCH_" + label + ".json";
}

std::string
configHash(const std::string &experiment,
           const std::vector<std::string> &args)
{
    // Same canonical-recipe shape as the serve cache key and journal
    // header: the name, then every arg in order.
    std::string canon = "bench|e:" + experiment;
    for (const auto &arg : args)
        canon += "|a:" + arg;
    char buffer[24];
    std::snprintf(buffer, sizeof buffer, "%016llx",
                  static_cast<unsigned long long>(
                      exec::hashString(canon)));
    return buffer;
}

std::string
renderSnapshotJson(const BenchSnapshot &snapshot)
{
    std::ostringstream out;
    out << "{\n";
    out << "  \"schema\": " << snapshot.schema << ",\n";
    out << "  \"name\": " << quoted(snapshot.name) << ",\n";
    out << "  \"experiment\": " << quoted(snapshot.experiment) << ",\n";
    out << "  \"args\": [";
    for (std::size_t i = 0; i < snapshot.args.size(); ++i) {
        out << (i > 0 ? ", " : "") << quoted(snapshot.args[i]);
    }
    out << "],\n";
    out << "  \"config_hash\": " << quoted(snapshot.config_hash)
        << ",\n";
    out << "  \"jobs\": " << snapshot.jobs << ",\n";
    out << "  \"hardware_threads\": " << snapshot.hardware_threads
        << ",\n";
    out << "  \"repeats\": " << snapshot.repeats << ",\n";
    out << "  \"calibration_sec\": "
        << numberText(snapshot.calibration_sec) << ",\n";
    emitStat(out, "  ", "elapsed_sec", snapshot.elapsed_sec, true);
    emitStat(out, "  ", "normalized_cost", snapshot.normalized_cost,
             true);
    emitStat(out, "  ", "cells_per_sec", snapshot.cells_per_sec, true);
    emitStat(out, "  ", "invocations_per_sec",
             snapshot.invocations_per_sec, true);
    emitStat(out, "  ", "sim_events_per_sec",
             snapshot.sim_events_per_sec, true);
    out << "  \"hot_disabled_ns\": "
        << numberText(snapshot.hot_disabled_ns) << ",\n";
    out << "  \"hot_enabled_ns\": "
        << numberText(snapshot.hot_enabled_ns) << ",\n";
    out << "  \"hot\": [";
    for (std::size_t i = 0; i < snapshot.hot.size(); ++i) {
        const auto &stat = snapshot.hot[i];
        out << (i > 0 ? ", " : "") << "\n    {\"name\": "
            << quoted(stat.name) << ", \"count\": " << stat.count
            << ", \"mean\": " << numberText(stat.mean)
            << ", \"p50\": " << numberText(stat.p50)
            << ", \"p99\": " << numberText(stat.p99) << "}";
    }
    out << (snapshot.hot.empty() ? "" : "\n  ") << "]\n";
    out << "}\n";
    return out.str();
}

bool
writeSnapshot(const BenchSnapshot &snapshot, report::ArtifactSink &sink,
              const std::string &path)
{
    return sink.write(path, [&snapshot](std::ostream &out) {
        out << renderSnapshotJson(snapshot);
    });
}

bool
parseSnapshot(const std::string &text, BenchSnapshot &out,
              std::string &error)
{
    support::JsonValue root;
    if (!support::parseJson(text, root, error))
        return false;
    if (!root.isObject()) {
        error = "snapshot is not a JSON object";
        return false;
    }
    out = BenchSnapshot{};
    out.schema = static_cast<int>(root.num("schema"));
    if (out.schema != BenchSnapshot::kSchemaVersion) {
        error = "unsupported snapshot schema " +
                std::to_string(out.schema);
        return false;
    }
    out.name = root.str("name");
    out.experiment = root.str("experiment");
    if (out.experiment.empty()) {
        error = "snapshot names no experiment";
        return false;
    }
    for (const auto &arg : root.at("args").items) {
        if (!arg.isString()) {
            error = "non-string experiment arg";
            return false;
        }
        out.args.push_back(arg.text);
    }
    out.config_hash = root.str("config_hash");
    out.jobs = static_cast<int>(root.num("jobs", 1));
    out.hardware_threads =
        static_cast<int>(root.num("hardware_threads"));
    out.repeats = static_cast<int>(root.num("repeats"));
    out.calibration_sec = root.num("calibration_sec");
    out.elapsed_sec = parseStat(root.at("elapsed_sec"));
    out.normalized_cost = parseStat(root.at("normalized_cost"));
    out.cells_per_sec = parseStat(root.at("cells_per_sec"));
    out.invocations_per_sec = parseStat(root.at("invocations_per_sec"));
    out.sim_events_per_sec = parseStat(root.at("sim_events_per_sec"));
    out.hot_disabled_ns = root.num("hot_disabled_ns");
    out.hot_enabled_ns = root.num("hot_enabled_ns");
    for (const auto &entry : root.at("hot").items) {
        HotStat stat;
        stat.name = entry.str("name");
        stat.count = static_cast<std::uint64_t>(entry.num("count"));
        stat.mean = entry.num("mean");
        stat.p50 = entry.num("p50");
        stat.p99 = entry.num("p99");
        out.hot.push_back(std::move(stat));
    }
    return true;
}

bool
loadSnapshot(const std::string &path, BenchSnapshot &out,
             std::string &error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        error = "cannot open " + path;
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    if (!parseSnapshot(text.str(), out, error)) {
        error = path + ": " + error;
        return false;
    }
    return true;
}

} // namespace capo::obs
