/**
 * @file
 * Typed result tables: the single path from "an experiment produced a
 * row" to "an artifact on disk".
 *
 * Every reproduction binary, sweep executor and test consumer used to
 * hand-roll its own CSV emission and printf formatting; `ResultTable`
 * replaces that with one typed representation — a `Schema` of named,
 * typed columns and rows of `Value`s — and one set of writers:
 *
 *  - CSV (RFC-4180 quoting via support::CsvWriter; doubles printed
 *    with %.17g so re-parsing is exact),
 *  - JSON-lines (one object per row, for downstream tooling),
 *  - the aligned ASCII tables the bench binaries print (strings left,
 *    numbers right, matching support::TextTable conventions).
 *
 * A `ResultStore` is the named collection of tables one experiment
 * produces; the registry runner flushes a store through the
 * `ArtifactSink` choke point at the end of a run.
 */

#ifndef CAPO_REPORT_TABLE_HH
#define CAPO_REPORT_TABLE_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace capo::report {

/** Column/value types a result table can carry. */
enum class Type : std::uint8_t { String, Double, Int, Uint, Bool };

/** One typed cell. */
class Value
{
  public:
    Value() : type_(Type::String) {}

    static Value str(std::string v);
    static Value dbl(double v);
    static Value integer(std::int64_t v);
    static Value uinteger(std::uint64_t v);
    static Value boolean(bool v);

    Type type() const { return type_; }
    const std::string &asString() const { return s_; }
    double asDouble() const { return d_; }
    std::int64_t asInt() const { return i_; }
    std::uint64_t asUint() const { return u_; }
    bool asBool() const { return b_; }

    /** Human/CSV form: strings verbatim, doubles %.17g (exact on
     *  re-parse), ints decimal, bools 0/1. */
    std::string display() const;

  private:
    Type type_;
    std::string s_;
    double d_ = 0.0;
    std::int64_t i_ = 0;
    std::uint64_t u_ = 0;
    bool b_ = false;
};

/** A named, typed column. */
struct Column
{
    std::string name;
    Type type = Type::String;
};

/** Ordered column set of a result table. Column order is part of the
 *  schema: artifacts must be stable across runs and --jobs values. */
class Schema
{
  public:
    Schema() = default;
    Schema(std::initializer_list<Column> columns);
    explicit Schema(std::vector<Column> columns);

    const std::vector<Column> &columns() const { return columns_; }
    std::size_t size() const { return columns_.size(); }

    /** Index of @p name, or npos. */
    std::size_t indexOf(const std::string &name) const;

    /** Same names and types in the same order? */
    bool operator==(const Schema &other) const;

  private:
    std::vector<Column> columns_;
};

/**
 * An append-only table of typed rows under a fixed schema.
 */
class ResultTable
{
  public:
    ResultTable() = default;
    explicit ResultTable(Schema schema);

    const Schema &schema() const { return schema_; }
    const std::vector<std::vector<Value>> &rows() const { return rows_; }
    std::size_t rowCount() const { return rows_.size(); }

    /** Append a row; arity and types must match the schema exactly
     *  (a mismatch is a programming error and asserts). */
    void addRow(std::vector<Value> row);

    /** @{ Writers. Each returns the number of data rows emitted.
     *  renderAscii right-aligns numeric columns — including String
     *  columns whose every cell is numeric-presentation text
     *  ("1.09", "(3/22)", "-") — and left-aligns identifiers. */
    std::size_t writeCsv(std::ostream &out) const;
    std::size_t writeJsonl(std::ostream &out) const;
    std::size_t renderAscii(std::ostream &out) const;
    /** @} */

  private:
    Schema schema_;
    std::vector<std::vector<Value>> rows_;
};

/**
 * The named tables one experiment produces. Insertion-ordered so
 * artifact emission is deterministic.
 */
class ResultStore
{
  public:
    /** Get-or-create the table @p name. On create, @p schema is
     *  adopted; on get, it must equal the existing schema. */
    ResultTable &table(const std::string &name, const Schema &schema);

    /** Find an existing table (null when absent). */
    const ResultTable *find(const std::string &name) const;

    /** Table names in insertion order. */
    std::vector<std::string> names() const;

    bool empty() const { return entries_.empty(); }

  private:
    struct Entry
    {
        std::string name;
        std::unique_ptr<ResultTable> table;
    };

    std::vector<Entry> entries_;
};

} // namespace capo::report

#endif // CAPO_REPORT_TABLE_HH
