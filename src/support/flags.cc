#include "support/flags.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/logging.hh"

namespace capo::support {

namespace {

/** stod limited to finite values: no flag takes inf or nan, and inf
 *  passes the `>= 0` range checks callers make. */
bool
parseFinite(const std::string &text, double &out)
{
    try {
        out = std::stod(text);
    } catch (...) {
        return false;
    }
    return std::isfinite(out);
}

} // namespace

Flags::Flags(std::string description)
    : description_(std::move(description))
{
}

void
Flags::addString(const std::string &name, const std::string &def,
                 const std::string &help)
{
    flags_[name] = Flag{Kind::String, help, def, def};
}

void
Flags::addInt(const std::string &name, std::int64_t def,
              const std::string &help)
{
    flags_[name] = Flag{Kind::Int, help, std::to_string(def),
                        std::to_string(def)};
}

void
Flags::addDouble(const std::string &name, double def, const std::string &help)
{
    flags_[name] = Flag{Kind::Double, help, std::to_string(def),
                        std::to_string(def)};
}

void
Flags::addBool(const std::string &name, bool def, const std::string &help)
{
    flags_[name] = Flag{Kind::Bool, help, def ? "true" : "false",
                        def ? "true" : "false"};
}

void
Flags::addAlias(const std::string &alias, const std::string &target)
{
    if (flags_.find(target) == flags_.end())
        CAPO_PANIC("alias -", alias, " targets undeclared --", target);
    aliases_[alias] = target;
}

const std::string &
Flags::resolve(const std::string &name) const
{
    const auto it = aliases_.find(name);
    return it == aliases_.end() ? name : it->second;
}

void
Flags::set(const std::string &name, const std::string &value)
{
    auto it = flags_.find(resolve(name));
    if (it == flags_.end())
        fatal("unknown flag --", name, "\n", usage());
    it->second.value = value;
}

bool
Flags::knows(const std::string &name) const
{
    return flags_.count(resolve(name)) > 0;
}

void
Flags::parse(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            program_ = argc > 0 ? argv[0] : "capo";
            std::fputs(usage().c_str(), stdout);
            std::exit(0);
        }
    }
    std::string error;
    if (!tryParse(argc, argv, error))
        fatal(error, "\n", usage());
}

bool
Flags::tryParse(int argc, const char *const *argv, std::string &error)
{
    program_ = argc > 0 ? argv[0] : "capo";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            error = "--help is not accepted here";
            return false;
        }
        std::string body;
        const std::string head =
            arg.size() > 1 && arg[0] == '-'
                ? resolve(arg.substr(
                      1, std::min(arg.find('='), arg.size()) - 1))
                : std::string();
        if (arg.rfind("--", 0) == 0) {
            body = arg.substr(2);
        } else if (!head.empty() && flags_.count(head)) {
            // Single-dash form (-n 5, -j 4) for declared names and
            // aliases only, so negative-number positionals still pass
            // through.
            body = arg.substr(1);
        } else {
            pos_.push_back(arg);
            continue;
        }
        auto eq = body.find('=');
        if (eq != std::string::npos) {
            auto it = flags_.find(resolve(body.substr(0, eq)));
            if (it == flags_.end()) {
                error = "unknown flag --" + body.substr(0, eq);
                return false;
            }
            it->second.value = body.substr(eq + 1);
            continue;
        }
        auto it = flags_.find(resolve(body));
        if (it == flags_.end()) {
            error = "unknown flag --" + body;
            return false;
        }
        if (it->second.kind == Kind::Bool) {
            it->second.value = "true";
        } else {
            if (i + 1 >= argc) {
                error = "flag --" + body + " needs a value";
                return false;
            }
            it->second.value = argv[++i];
        }
    }
    return true;
}

bool
Flags::valuesValid(std::string &error) const
{
    for (const auto &[name, flag] : flags_) {
        switch (flag.kind) {
        case Kind::String:
            break;
        case Kind::Int:
            try {
                (void)std::stoll(flag.value);
            } catch (...) {
                error = "flag --" + name + " expects an integer, got '" +
                        flag.value + "'";
                return false;
            }
            break;
        case Kind::Double: {
            double value = 0.0;
            if (!parseFinite(flag.value, value)) {
                error = "flag --" + name +
                        " expects a finite number, got '" + flag.value +
                        "'";
                return false;
            }
            break;
        }
        case Kind::Bool:
            if (flag.value != "true" && flag.value != "1" &&
                flag.value != "yes" && flag.value != "false" &&
                flag.value != "0" && flag.value != "no") {
                error = "flag --" + name + " expects a boolean, got '" +
                        flag.value + "'";
                return false;
            }
            break;
        }
    }
    return true;
}

const Flags::Flag &
Flags::find(const std::string &name, Kind kind) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        CAPO_PANIC("flag --", name, " was never declared");
    if (it->second.kind != kind)
        CAPO_PANIC("flag --", name, " accessed with the wrong type");
    return it->second;
}

const std::string &
Flags::getString(const std::string &name) const
{
    return find(name, Kind::String).value;
}

std::int64_t
Flags::getInt(const std::string &name) const
{
    const auto &flag = find(name, Kind::Int);
    try {
        return std::stoll(flag.value);
    } catch (...) {
        fatal("flag --", name, " expects an integer, got '", flag.value, "'");
    }
}

double
Flags::getDouble(const std::string &name) const
{
    const auto &flag = find(name, Kind::Double);
    double value = 0.0;
    if (!parseFinite(flag.value, value)) {
        fatal("flag --", name, " expects a finite number, got '", flag.value,
              "'");
    }
    return value;
}

bool
Flags::getBool(const std::string &name) const
{
    const auto &flag = find(name, Kind::Bool);
    if (flag.value == "true" || flag.value == "1" || flag.value == "yes")
        return true;
    if (flag.value == "false" || flag.value == "0" || flag.value == "no")
        return false;
    fatal("flag --", name, " expects a boolean, got '", flag.value, "'");
}

std::string
Flags::usage() const
{
    std::string text = description_ + "\n\nusage: " + program_ +
                       " [flags]\n\nflags:\n";
    for (const auto &[name, flag] : flags_) {
        text += "  --" + name;
        for (const auto &[alias, target] : aliases_) {
            if (target == name)
                text += ", -" + alias;
        }
        text += " (default: " + flag.def + ")\n      " + flag.help + "\n";
    }
    return text;
}

} // namespace capo::support
