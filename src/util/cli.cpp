#include "util/cli.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace sjs {

double parse_double(const std::string& s) {
  std::size_t pos = 0;
  const double v = std::stod(s, &pos);
  if (pos != s.size()) throw std::invalid_argument("not a number: " + s);
  return v;
}

std::int64_t parse_int(const std::string& s) {
  std::size_t pos = 0;
  const long long v = std::stoll(s, &pos);
  if (pos != s.size()) throw std::invalid_argument("not an integer: " + s);
  return static_cast<std::int64_t>(v);
}

std::vector<double> parse_double_list(const std::string& s) {
  std::vector<double> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    out.push_back(parse_double(item));
  }
  return out;
}

void CliFlags::add_double(const std::string& name, double def,
                          const std::string& help) {
  Flag f;
  f.type = Type::kDouble;
  f.help = help;
  f.d = def;
  flags_[name] = std::move(f);
}

void CliFlags::add_int(const std::string& name, std::int64_t def,
                       const std::string& help) {
  Flag f;
  f.type = Type::kInt;
  f.help = help;
  f.i = def;
  flags_[name] = std::move(f);
}

void CliFlags::add_bool(const std::string& name, bool def,
                        const std::string& help) {
  Flag f;
  f.type = Type::kBool;
  f.help = help;
  f.b = def;
  flags_[name] = std::move(f);
}

void CliFlags::add_string(const std::string& name, const std::string& def,
                          const std::string& help) {
  Flag f;
  f.type = Type::kString;
  f.help = help;
  f.s = def;
  flags_[name] = std::move(f);
}

void CliFlags::add_double_list(const std::string& name,
                               std::vector<double> def,
                               const std::string& help) {
  Flag f;
  f.type = Type::kDoubleList;
  f.help = help;
  f.list = std::move(def);
  flags_[name] = std::move(f);
}

bool CliFlags::set_value(Flag& flag, const std::string& value) {
  try {
    switch (flag.type) {
      case Type::kDouble:
        flag.d = parse_double(value);
        return true;
      case Type::kInt:
        flag.i = parse_int(value);
        return true;
      case Type::kBool:
        if (value == "true" || value == "1") {
          flag.b = true;
        } else if (value == "false" || value == "0") {
          flag.b = false;
        } else {
          return false;
        }
        return true;
      case Type::kString:
        flag.s = value;
        return true;
      case Type::kDoubleList:
        flag.list = parse_double_list(value);
        return true;
    }
  } catch (const std::exception&) {
    return false;
  }
  return false;
}

bool CliFlags::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage(argv[0]).c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      error_ = "unexpected positional argument: " + arg;
      return false;
    }
    arg = arg.substr(2);
    std::string name = arg;
    std::optional<std::string> value;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      error_ = "unknown flag: --" + name;
      return false;
    }
    Flag& flag = it->second;
    if (!value) {
      if (flag.type == Type::kBool) {
        value = "true";  // bare --flag enables a boolean
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        error_ = "flag --" + name + " expects a value";
        return false;
      }
    }
    if (!set_value(flag, *value)) {
      error_ = "bad value for --" + name + ": " + *value;
      return false;
    }
  }
  return true;
}

const CliFlags::Flag* CliFlags::find(const std::string& name,
                                     Type type) const {
  auto it = flags_.find(name);
  if (it == flags_.end() || it->second.type != type) {
    throw std::logic_error("flag not registered with this type: " + name);
  }
  return &it->second;
}

double CliFlags::get_double(const std::string& name) const {
  return find(name, Type::kDouble)->d;
}

std::int64_t CliFlags::get_int(const std::string& name) const {
  return find(name, Type::kInt)->i;
}

bool CliFlags::get_bool(const std::string& name) const {
  return find(name, Type::kBool)->b;
}

const std::string& CliFlags::get_string(const std::string& name) const {
  return find(name, Type::kString)->s;
}

const std::vector<double>& CliFlags::get_double_list(
    const std::string& name) const {
  return find(name, Type::kDoubleList)->list;
}

bool CliFlags::require_positive(const std::string& name) {
  const auto it = flags_.find(name);
  if (it == flags_.end()) {
    throw std::logic_error("flag not registered: " + name);
  }
  const Flag& flag = it->second;
  std::ostringstream os;
  switch (flag.type) {
    case Type::kDouble:
      if (std::isfinite(flag.d) && flag.d > 0.0) return true;
      os << "--" << name << " must be a positive finite number (got "
         << flag.d << ")";
      break;
    case Type::kInt:
      if (flag.i > 0) return true;
      os << "--" << name << " must be >= 1 (got " << flag.i << ")";
      break;
    default:
      throw std::logic_error("flag is not numeric: " + name);
  }
  error_ = os.str();
  return false;
}

bool CliFlags::require_at_least(const std::string& name, std::int64_t min) {
  const Flag* flag = find(name, Type::kInt);
  if (flag->i >= min) return true;
  std::ostringstream os;
  os << "--" << name << " must be >= " << min << " (got " << flag->i << ")";
  error_ = os.str();
  return false;
}

std::string CliFlags::usage(const std::string& program) const {
  std::ostringstream os;
  os << "Usage: " << program << " [flags]\n";
  for (const auto& [name, flag] : flags_) {
    os << "  --" << name;
    switch (flag.type) {
      case Type::kDouble:
        os << "=<double> (default " << flag.d << ")";
        break;
      case Type::kInt:
        os << "=<int> (default " << flag.i << ")";
        break;
      case Type::kBool:
        os << " (default " << (flag.b ? "true" : "false") << ")";
        break;
      case Type::kString:
        os << "=<string> (default \"" << flag.s << "\")";
        break;
      case Type::kDoubleList: {
        os << "=<d1,d2,...> (default ";
        for (std::size_t i = 0; i < flag.list.size(); ++i) {
          if (i) os << ",";
          os << flag.list[i];
        }
        os << ")";
        break;
      }
    }
    os << "\n      " << flag.help << "\n";
  }
  return os.str();
}

}  // namespace sjs
