#include "report/artifact.hh"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "exec/seed.hh"
#include "support/logging.hh"

namespace capo::report {

namespace {

bool
isAbsolute(const std::string &path)
{
    return !path.empty() && path.front() == '/';
}

} // namespace

const char *
formatSuffix(Format format)
{
    switch (format) {
      case Format::Csv:
        return ".csv";
      case Format::Jsonl:
        return ".jsonl";
    }
    return "";
}

ArtifactSink::ArtifactSink(std::string root, Mode mode)
    : root_(std::move(root)), mode_(mode)
{
}

void
ArtifactSink::armFaults(const fault::FaultPlan &plan,
                        std::uint64_t stream_seed)
{
    if (plan.rate(fault::Site::ArtifactIo) <= 0.0) {
        injector_.reset();
        return;
    }
    injector_ = std::make_unique<fault::FaultInjector>(
        plan, exec::mix64(stream_seed ^ 0xa871fac7));
}

void
ArtifactSink::setRetries(int retries)
{
    retries_ = retries < 0 ? 0 : retries;
}

bool
ArtifactSink::attempt(const std::string &path,
                      const std::string &payload, std::string &error)
{
    // Two injection opportunities per attempt mirror the two ways a
    // real write dies: the open/write itself, and the final flush.
    if (injector_ != nullptr &&
        injector_->fire(fault::Site::ArtifactIo, 0.0)) {
        error = "injected write failure";
        return false;
    }

    switch (mode_) {
      case Mode::Memory:
      case Mode::Discard:
        break;
      case Mode::Disk: {
        const std::string full =
            isAbsolute(path) || root_.empty() || root_ == "."
                ? path
                : root_ + "/" + path;
        const auto parent =
            std::filesystem::path(full).parent_path();
        if (!parent.empty()) {
            std::error_code ignored;
            std::filesystem::create_directories(parent, ignored);
        }
        std::ofstream out(full, std::ios::binary | std::ios::trunc);
        if (!out) {
            error = "cannot open '" + full + "' for writing";
            return false;
        }
        out << payload;
        out.flush();
        if (!out) {
            error = "error while writing '" + full + "'";
            return false;
        }
        break;
      }
    }

    if (injector_ != nullptr &&
        injector_->fire(fault::Site::ArtifactIo, 0.0)) {
        error = "injected flush failure";
        return false;
    }
    if (mode_ == Mode::Memory)
        payloads_[path] = payload;
    return true;
}

bool
ArtifactSink::write(const std::string &path,
                    const std::function<void(std::ostream &)> &writer)
{
    std::ostringstream buffer;
    writer(buffer);
    const std::string payload = buffer.str();

    ArtifactRecord record;
    record.path = path;
    record.bytes = payload.size();
    record.attempts = 0;

    for (int attempt_index = 0; attempt_index <= retries_;
         ++attempt_index) {
        ++record.attempts;
        std::string error;
        if (attempt(path, payload, error)) {
            record.ok = true;
            record.error.clear();
            break;
        }
        record.error = error;
    }
    if (!record.ok) {
        support::warn("artifact ", path, " quarantined after ",
                      record.attempts, " attempt(s): ", record.error);
    }
    records_.push_back(record);
    return record.ok;
}

bool
ArtifactSink::writeTable(const std::string &path,
                         const ResultTable &table, Format format)
{
    return write(path, [&](std::ostream &out) {
        if (format == Format::Csv)
            table.writeCsv(out);
        else
            table.writeJsonl(out);
    });
}

std::vector<ArtifactRecord>
ArtifactSink::quarantined() const
{
    std::vector<ArtifactRecord> out;
    for (const auto &record : records_) {
        if (!record.ok)
            out.push_back(record);
    }
    return out;
}

const std::string &
ArtifactSink::payload(const std::string &path) const
{
    static const std::string kEmpty;
    const auto it = payloads_.find(path);
    return it == payloads_.end() ? kEmpty : it->second;
}

} // namespace capo::report
