#include "serve/protocol.hh"

#include <cstdio>
#include <sstream>

#include "exec/seed.hh"
#include "report/codec.hh"

namespace capo::serve {

namespace {

const char *const kRequestMagic = "capo-serve-req v1";
const char *const kResponseMagic = "capo-serve-rsp v1";
const char *const kStoreMagic = "store v1";

const char *
kindName(RequestKind kind)
{
    switch (kind) {
      case RequestKind::Run:
        return "run";
      case RequestKind::Health:
        return "health";
      case RequestKind::Shutdown:
        return "shutdown";
    }
    return "?";
}

bool
kindFromName(const std::string &name, RequestKind &kind)
{
    if (name == "run")
        kind = RequestKind::Run;
    else if (name == "health")
        kind = RequestKind::Health;
    else if (name == "shutdown")
        kind = RequestKind::Shutdown;
    else
        return false;
    return true;
}

bool
statusFromName(const std::string &name, Status &status)
{
    for (Status s : {Status::Ok, Status::Error, Status::RetryLater,
                     Status::DeadlineExpired, Status::ShuttingDown}) {
        if (name == statusName(s)) {
            status = s;
            return true;
        }
    }
    return false;
}

bool
parseU64(const std::string &text, std::uint64_t &value)
{
    if (text.empty() || text[0] == '-')
        return false;
    char *end = nullptr;
    value = std::strtoull(text.c_str(), &end, 10);
    return end != nullptr && *end == '\0';
}

bool
typeFromName(const std::string &name, report::Type &type)
{
    for (report::Type t :
         {report::Type::String, report::Type::Double, report::Type::Int,
          report::Type::Uint, report::Type::Bool}) {
        if (name == report::typeName(t)) {
            type = t;
            return true;
        }
    }
    return false;
}

/** Pull the next '\n'-terminated line off @p payload at @p pos.
 *  Returns false at end of payload. */
bool
nextLine(const std::string &payload, std::size_t &pos,
         std::string &line)
{
    if (pos >= payload.size())
        return false;
    const auto nl = payload.find('\n', pos);
    if (nl == std::string::npos) {
        line = payload.substr(pos);
        pos = payload.size();
    } else {
        line = payload.substr(pos, nl - pos);
        pos = nl + 1;
    }
    return true;
}

} // namespace

void
encodeFrameLength(std::uint32_t length, char out[4])
{
    out[0] = static_cast<char>(length & 0xff);
    out[1] = static_cast<char>((length >> 8) & 0xff);
    out[2] = static_cast<char>((length >> 16) & 0xff);
    out[3] = static_cast<char>((length >> 24) & 0xff);
}

std::uint32_t
decodeFrameLength(const char bytes[4])
{
    const auto b = [&](int i) {
        return static_cast<std::uint32_t>(
            static_cast<unsigned char>(bytes[i]));
    };
    return b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
}

const char *
statusName(Status status)
{
    switch (status) {
      case Status::Ok:
        return "OK";
      case Status::Error:
        return "ERROR";
      case Status::RetryLater:
        return "RETRY_LATER";
      case Status::DeadlineExpired:
        return "DEADLINE_EXPIRED";
      case Status::ShuttingDown:
        return "SHUTTING_DOWN";
    }
    return "?";
}

std::string
encodeRequest(const Request &request)
{
    std::string out =
        std::string(kRequestMagic) + " " + kindName(request.kind) + "\n";
    if (request.kind == RequestKind::Run) {
        out += report::encodeRecord({"exp", request.experiment});
        for (const auto &arg : request.args)
            out += report::encodeRecord({"arg", arg});
        out += report::encodeRecord(
            {"deadline", report::encodeDouble(request.deadline_ms)});
    }
    out += report::encodeRecord(
        {"stream", std::to_string(request.stream)});
    out += report::encodeRecord(
        {"seq", std::to_string(request.sequence)});
    out += report::encodeRecord(
        {"attempt", std::to_string(request.attempt)});
    return out;
}

bool
decodeRequest(const std::string &payload, Request &request,
              std::string &error)
{
    std::size_t pos = 0;
    std::string line;
    if (!nextLine(payload, pos, line) ||
        line.rfind(kRequestMagic, 0) != 0 ||
        line.size() < std::string(kRequestMagic).size() + 2) {
        error = "bad request magic";
        return false;
    }
    Request decoded;
    if (!kindFromName(
            line.substr(std::string(kRequestMagic).size() + 1),
            decoded.kind)) {
        error = "unknown request kind";
        return false;
    }
    while (nextLine(payload, pos, line)) {
        const auto fields = report::decodeRecord(line);
        if (fields.size() != 2) {
            error = "malformed request record '" + line + "'";
            return false;
        }
        const std::string &tag = fields[0];
        const std::string &value = fields[1];
        if (tag == "exp") {
            decoded.experiment = value;
        } else if (tag == "arg") {
            decoded.args.push_back(value);
        } else if (tag == "deadline") {
            if (!report::decodeDouble(value, decoded.deadline_ms)) {
                error = "bad deadline encoding";
                return false;
            }
        } else if (tag == "stream") {
            if (!parseU64(value, decoded.stream)) {
                error = "bad stream id";
                return false;
            }
        } else if (tag == "seq") {
            if (!parseU64(value, decoded.sequence)) {
                error = "bad sequence";
                return false;
            }
        } else if (tag == "attempt") {
            if (!parseU64(value, decoded.attempt)) {
                error = "bad attempt";
                return false;
            }
        } else {
            error = "unknown request tag '" + tag + "'";
            return false;
        }
    }
    if (decoded.kind == RequestKind::Run &&
        decoded.experiment.empty()) {
        error = "run request without an experiment name";
        return false;
    }
    request = std::move(decoded);
    return true;
}

std::string
encodeResponse(const Response &response)
{
    std::string out = std::string(kResponseMagic) + " " +
                      statusName(response.status) + " " +
                      (response.cached ? "1" : "0") + "\n";
    // The message travels as one record field: strip separators so a
    // hostile error string cannot smuggle extra records.
    std::string clean = response.message;
    for (char &c : clean) {
        if (c == '\t' || c == '\n')
            c = ' ';
    }
    out += report::encodeRecord({"msg", clean});
    out += "body\n";
    out += response.body;
    return out;
}

bool
decodeResponse(const std::string &payload, Response &response,
               std::string &error)
{
    std::size_t pos = 0;
    std::string line;
    if (!nextLine(payload, pos, line)) {
        error = "empty response";
        return false;
    }
    std::stringstream head(line);
    std::string magic_a, magic_b, status_name, cached;
    head >> magic_a >> magic_b >> status_name >> cached;
    Response decoded;
    if (magic_a + " " + magic_b != kResponseMagic ||
        !statusFromName(status_name, decoded.status) ||
        (cached != "0" && cached != "1")) {
        error = "bad response header '" + line + "'";
        return false;
    }
    decoded.cached = cached == "1";
    if (!nextLine(payload, pos, line)) {
        error = "response missing message record";
        return false;
    }
    const auto fields = report::decodeRecord(line);
    if (fields.size() != 2 || fields[0] != "msg") {
        error = "bad response message record";
        return false;
    }
    decoded.message = fields[1];
    if (!nextLine(payload, pos, line) || line != "body") {
        error = "response missing body marker";
        return false;
    }
    decoded.body = payload.substr(pos);
    response = std::move(decoded);
    return true;
}

std::string
encodeStore(const report::ResultStore &store)
{
    const auto names = store.names();
    std::string out =
        std::string(kStoreMagic) + " " + std::to_string(names.size()) +
        "\n";
    for (const auto &name : names) {
        const report::ResultTable *table = store.find(name);
        out += report::encodeRecord(
            {"table", name, std::to_string(table->schema().size()),
             std::to_string(table->rowCount())});
        for (const auto &column : table->schema().columns()) {
            out += report::encodeRecord(
                {"col", column.name, report::typeName(column.type)});
        }
        for (std::size_t r = 0; r < table->rowCount(); ++r) {
            auto fields = table->encodeRow(r);
            fields.insert(fields.begin(), "row");
            out += report::encodeRecord(fields);
        }
    }
    return out;
}

bool
decodeStore(const std::string &payload, report::ResultStore &store,
            std::string &error)
{
    std::size_t pos = 0;
    std::string line;
    if (!nextLine(payload, pos, line) ||
        line.rfind(kStoreMagic, 0) != 0) {
        error = "bad store magic";
        return false;
    }
    std::uint64_t ntables = 0;
    if (!parseU64(line.substr(std::string(kStoreMagic).size() + 1),
                  ntables)) {
        error = "bad store table count";
        return false;
    }
    for (std::uint64_t t = 0; t < ntables; ++t) {
        if (!nextLine(payload, pos, line)) {
            error = "store truncated before table header";
            return false;
        }
        const auto header = report::decodeRecord(line);
        std::uint64_t ncols = 0, nrows = 0;
        if (header.size() != 4 || header[0] != "table" ||
            !parseU64(header[2], ncols) || !parseU64(header[3], nrows)) {
            error = "bad table header '" + line + "'";
            return false;
        }
        std::vector<report::Column> columns;
        for (std::uint64_t c = 0; c < ncols; ++c) {
            if (!nextLine(payload, pos, line)) {
                error = "store truncated in columns";
                return false;
            }
            const auto col = report::decodeRecord(line);
            report::Type type;
            if (col.size() != 3 || col[0] != "col" ||
                !typeFromName(col[2], type)) {
                error = "bad column record '" + line + "'";
                return false;
            }
            columns.push_back({col[1], type});
        }
        // table() asserts on a schema mismatch for an existing name;
        // wire input is untrusted, so refuse duplicates up front.
        if (store.find(header[1]) != nullptr) {
            error = "duplicate table '" + header[1] + "'";
            return false;
        }
        auto &table = store.table(header[1],
                                  report::Schema(std::move(columns)));
        for (std::uint64_t r = 0; r < nrows; ++r) {
            if (!nextLine(payload, pos, line)) {
                error = "store truncated in rows";
                return false;
            }
            auto fields = report::decodeRecord(line);
            if (fields.empty() || fields[0] != "row") {
                error = "bad row record '" + line + "'";
                return false;
            }
            fields.erase(fields.begin());
            if (!table.addDecodedRow(fields)) {
                error = "row does not match schema: '" + line + "'";
                return false;
            }
        }
    }
    return true;
}

std::uint64_t
requestKey(const Request &request)
{
    std::string canon = "run|e:" + request.experiment;
    for (const auto &arg : request.args)
        canon += "|a:" + arg;
    return exec::hashString(canon);
}

std::string
cacheFileName(std::uint64_t key)
{
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%016llx.capores",
                  static_cast<unsigned long long>(key));
    return buffer;
}

} // namespace capo::serve
