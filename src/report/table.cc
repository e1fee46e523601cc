#include "report/table.hh"

#include <cstdio>
#include <string_view>

#include "support/csv.hh"
#include "support/logging.hh"
#include "support/table.hh"

namespace capo::report {

namespace {

std::string
formatDouble(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    for (char c : text) {
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
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

Value
Value::str(std::string v)
{
    Value value;
    value.type_ = Type::String;
    value.s_ = std::move(v);
    return value;
}

Value
Value::dbl(double v)
{
    Value value;
    value.type_ = Type::Double;
    value.d_ = v;
    return value;
}

Value
Value::integer(std::int64_t v)
{
    Value value;
    value.type_ = Type::Int;
    value.i_ = v;
    return value;
}

Value
Value::uinteger(std::uint64_t v)
{
    Value value;
    value.type_ = Type::Uint;
    value.u_ = v;
    return value;
}

Value
Value::boolean(bool v)
{
    Value value;
    value.type_ = Type::Bool;
    value.b_ = v;
    return value;
}

std::string
Value::display() const
{
    switch (type_) {
      case Type::String:
        return s_;
      case Type::Double:
        return formatDouble(d_);
      case Type::Int:
        return std::to_string(i_);
      case Type::Uint:
        return std::to_string(u_);
      case Type::Bool:
        return b_ ? "1" : "0";
    }
    return "";
}

Schema::Schema(std::initializer_list<Column> columns)
    : columns_(columns)
{
}

Schema::Schema(std::vector<Column> columns) : columns_(std::move(columns))
{
}

std::size_t
Schema::indexOf(const std::string &name) const
{
    for (std::size_t i = 0; i < columns_.size(); ++i) {
        if (columns_[i].name == name)
            return i;
    }
    return static_cast<std::size_t>(-1);
}

bool
Schema::operator==(const Schema &other) const
{
    if (columns_.size() != other.columns_.size())
        return false;
    for (std::size_t i = 0; i < columns_.size(); ++i) {
        if (columns_[i].name != other.columns_[i].name ||
            columns_[i].type != other.columns_[i].type)
            return false;
    }
    return true;
}

ResultTable::ResultTable(Schema schema) : schema_(std::move(schema))
{
}

void
ResultTable::addRow(std::vector<Value> row)
{
    CAPO_ASSERT(row.size() == schema_.size(),
                "result row arity does not match the schema");
    for (std::size_t i = 0; i < row.size(); ++i) {
        CAPO_ASSERT(row[i].type() == schema_.columns()[i].type,
                    "result cell type does not match the schema");
    }
    rows_.push_back(std::move(row));
}

std::size_t
ResultTable::writeCsv(std::ostream &out) const
{
    support::CsvWriter csv(out);
    std::vector<std::string> header;
    header.reserve(schema_.size());
    for (const auto &column : schema_.columns())
        header.push_back(column.name);
    csv.header(header);
    for (const auto &row : rows_) {
        csv.beginRow();
        for (const auto &value : row)
            csv.cell(value.display());
        csv.endRow();
    }
    return csv.rows();
}

std::size_t
ResultTable::writeJsonl(std::ostream &out) const
{
    for (const auto &row : rows_) {
        out << '{';
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (c > 0)
                out << ',';
            out << '"' << jsonEscape(schema_.columns()[c].name)
                << "\":";
            switch (row[c].type()) {
              case Type::String:
                out << '"' << jsonEscape(row[c].asString()) << '"';
                break;
              case Type::Bool:
                out << (row[c].asBool() ? "true" : "false");
                break;
              default:
                out << row[c].display();
            }
        }
        out << "}\n";
    }
    return rows_.size();
}

std::size_t
ResultTable::renderAscii(std::ostream &out) const
{
    // Numeric-presentation text ("1.09", "(3/22)", "6.00x", "-")
    // right-aligns like the numbers it formats; identifiers and prose
    // left-align. Lets presentation tables with pre-formatted string
    // cells render like typed numeric columns.
    const auto numeric_like = [](const std::string &cell) {
        bool digit = false;
        for (const char c : cell) {
            if (c >= '0' && c <= '9') {
                digit = true;
                continue;
            }
            if (std::string_view("+-.%()x/eE,").find(c) ==
                std::string_view::npos)
                return false;
        }
        return digit || cell == "-";
    };

    support::TextTable text;
    std::vector<std::string> names;
    std::vector<support::TextTable::Align> aligns;
    for (std::size_t i = 0; i < schema_.columns().size(); ++i) {
        const auto &column = schema_.columns()[i];
        names.push_back(column.name);
        bool right = column.type != Type::String;
        if (!right && !rows_.empty()) {
            right = true;
            for (const auto &row : rows_) {
                const std::string &cell = row[i].asString();
                if (!cell.empty() && !numeric_like(cell)) {
                    right = false;
                    break;
                }
            }
        }
        aligns.push_back(right ? support::TextTable::Align::Right
                               : support::TextTable::Align::Left);
    }
    text.columns(names, aligns);
    for (const auto &row : rows_) {
        std::vector<std::string> cells;
        cells.reserve(row.size());
        for (const auto &value : row)
            cells.push_back(value.display());
        text.row(cells);
    }
    text.render(out);
    return rows_.size();
}

ResultTable &
ResultStore::table(const std::string &name, const Schema &schema)
{
    for (auto &entry : entries_) {
        if (entry.name == name) {
            CAPO_ASSERT(entry.table->schema() == schema,
                        "result table reopened with a different schema");
            return *entry.table;
        }
    }
    entries_.push_back(
        {name, std::make_unique<ResultTable>(schema)});
    return *entries_.back().table;
}

const ResultTable *
ResultStore::find(const std::string &name) const
{
    for (const auto &entry : entries_) {
        if (entry.name == name)
            return entry.table.get();
    }
    return nullptr;
}

std::vector<std::string>
ResultStore::names() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto &entry : entries_)
        out.push_back(entry.name);
    return out;
}

} // namespace capo::report
