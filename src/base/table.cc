#include "src/base/table.h"

#include <algorithm>
#include <cctype>

#include "src/base/strings.h"

namespace potemkin {

namespace {

bool LooksNumeric(const std::string& cell) {
  if (cell.empty()) {
    return false;
  }
  for (char c : cell) {
    if (!std::isdigit(static_cast<unsigned char>(c)) && c != '.' && c != '-' &&
        c != '+' && c != 'e' && c != '%' && c != ',') {
      return false;
    }
  }
  return true;
}

}  // namespace

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::AddRow(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::ToAscii() const {
  std::vector<size_t> widths(headers_.size(), 0);
  for (size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : headers_[c];
      const size_t pad = widths[c] - cell.size();
      if (c > 0) {
        line += "  ";
      }
      if (LooksNumeric(cell)) {
        line += std::string(pad, ' ') + cell;
      } else {
        line += cell + std::string(pad, ' ');
      }
    }
    // Trim trailing spaces.
    while (!line.empty() && line.back() == ' ') {
      line.pop_back();
    }
    return line;
  };

  std::string out = render_row(headers_);
  out += '\n';
  size_t rule_len = 0;
  for (size_t c = 0; c < widths.size(); ++c) {
    rule_len += widths[c] + (c > 0 ? 2 : 0);
  }
  out += std::string(rule_len, '-');
  out += '\n';
  for (const auto& row : rows_) {
    out += render_row(row);
    out += '\n';
  }
  return out;
}

std::string Table::ToCsv() const {
  auto escape = [](const std::string& cell) {
    if (cell.find_first_of(",\"\n") == std::string::npos) {
      return cell;
    }
    std::string out = "\"";
    for (char c : cell) {
      if (c == '"') {
        out += "\"\"";
      } else {
        out += c;
      }
    }
    out += '"';
    return out;
  };
  std::string out;
  for (size_t c = 0; c < headers_.size(); ++c) {
    if (c > 0) {
      out += ',';
    }
    out += escape(headers_[c]);
  }
  out += '\n';
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) {
        out += ',';
      }
      out += escape(row[c]);
    }
    out += '\n';
  }
  return out;
}

}  // namespace potemkin
