// ASCII table / CSV rendering used by the benchmark harness to print the paper's
// tables and figure data series.
#ifndef SRC_BASE_TABLE_H_
#define SRC_BASE_TABLE_H_

#include <string>
#include <vector>

namespace potemkin {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);

  // Renders with a header rule and right-aligned numeric-looking cells.
  std::string ToAscii() const;
  std::string ToCsv() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace potemkin

#endif  // SRC_BASE_TABLE_H_
