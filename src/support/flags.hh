/**
 * @file
 * Tiny command-line flag parser for examples and benchmark binaries.
 *
 * Supports `--name=value`, `--name value`, boolean `--name`, and a
 * generated `--help`. Unknown flags are fatal (catching typos early in
 * experiment scripts matters more than leniency).
 */

#ifndef CAPO_SUPPORT_FLAGS_HH
#define CAPO_SUPPORT_FLAGS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace capo::support {

/**
 * Declarative flag set parsed from argc/argv.
 */
class Flags
{
  public:
    /** @param description One-line program description for --help. */
    explicit Flags(std::string description);

    /** @{ Declare flags with default values. */
    void addString(const std::string &name, const std::string &def,
                   const std::string &help);
    void addInt(const std::string &name, std::int64_t def,
                const std::string &help);
    void addDouble(const std::string &name, double def,
                   const std::string &help);
    void addBool(const std::string &name, bool def, const std::string &help);
    /** @} */

    /** Declare @p alias as another spelling of @p target (typically a
     *  short form, e.g. "j" for "jobs"; enables `-j 4`). */
    void addAlias(const std::string &alias, const std::string &target);

    /**
     * Parse the command line. Exits with usage on --help or bad input.
     * Non-flag arguments are collected as positionals.
     */
    void parse(int argc, const char *const *argv);

    /**
     * Non-fatal parse for untrusted input (the serve layer parses
     * request args inside a long-running daemon, where exit() would be
     * a crash vector). Returns false and sets @p error on unknown
     * flags, missing values or --help; flag values may be partially
     * updated on failure, so parse into a scratch copy.
     */
    bool tryParse(int argc, const char *const *argv,
                  std::string &error);

    /** Is @p name (or an alias of it) a declared flag? */
    bool knows(const std::string &name) const;

    /**
     * Do all current values parse as their declared types? False with
     * @p error naming the first offender. Pairs with tryParse for
     * untrusted input: the typed accessors are fatal on malformed
     * values, so a daemon validates before handing flags to a body.
     */
    bool valuesValid(std::string &error) const;

    /** @{ Typed accessors (fatal on unknown names). */
    const std::string &getString(const std::string &name) const;
    std::int64_t getInt(const std::string &name) const;
    double getDouble(const std::string &name) const;
    bool getBool(const std::string &name) const;
    /** @} */

    const std::vector<std::string> &positionals() const { return pos_; }

    /** Every declared flag's current value (canonical string form),
     *  by name. */
    std::map<std::string, std::string> values() const;

    /** Render usage text (also shown by --help). */
    std::string usage() const;

  private:
    enum class Kind { String, Int, Double, Bool };

    struct Flag {
        Kind kind;
        std::string help;
        std::string value;   // canonical string form
        std::string def;
    };

    const Flag &find(const std::string &name, Kind kind) const;
    void set(const std::string &name, const std::string &value);
    const std::string &resolve(const std::string &name) const;

    std::string description_;
    std::string program_;
    std::map<std::string, Flag> flags_;
    std::map<std::string, std::string> aliases_;
    std::vector<std::string> pos_;
};

} // namespace capo::support

#endif // CAPO_SUPPORT_FLAGS_HH
