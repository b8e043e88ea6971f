#include "util/string_util.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace cminer::util {

std::vector<std::string>
split(std::string_view text, char delimiter)
{
    std::vector<std::string> fields;
    std::size_t start = 0;
    while (true) {
        std::size_t pos = text.find(delimiter, start);
        if (pos == std::string_view::npos) {
            fields.emplace_back(text.substr(start));
            break;
        }
        fields.emplace_back(text.substr(start, pos - start));
        start = pos + 1;
    }
    return fields;
}

std::string
join(const std::vector<std::string> &parts, std::string_view separator)
{
    std::string joined;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i > 0)
            joined += separator;
        joined += parts[i];
    }
    return joined;
}

std::string
trim(std::string_view text)
{
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin])))
        ++begin;
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1])))
        --end;
    return std::string(text.substr(begin, end - begin));
}

bool
startsWith(std::string_view text, std::string_view prefix)
{
    return text.size() >= prefix.size() &&
           text.substr(0, prefix.size()) == prefix;
}

std::string
format(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    if (needed < 0) {
        va_end(args_copy);
        return {};
    }
    std::string buffer(static_cast<std::size_t>(needed) + 1, '\0');
    std::vsnprintf(buffer.data(), buffer.size(), fmt, args_copy);
    va_end(args_copy);
    buffer.resize(static_cast<std::size_t>(needed));
    return buffer;
}

std::string
formatDouble(double value, int decimals)
{
    return format("%.*f", decimals, value);
}

bool
parseDouble(std::string_view text, double &out)
{
    const std::string field = trim(text);
    if (field.empty())
        return false;
    char *end = nullptr;
    const double value = std::strtod(field.c_str(), &end);
    if (end != field.c_str() + field.size())
        return false;
    out = value;
    return true;
}

} // namespace cminer::util
