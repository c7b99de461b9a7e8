#include "support/csv.hpp"

#include "support/error.hpp"

namespace relperf::support {

std::string csv_escape(const std::string& field) {
    const bool needs_quote =
        field.find_first_of(",\"\n\r") != std::string::npos;
    if (!needs_quote) return field;
    std::string out = "\"";
    for (const char c : field) {
        if (c == '"') out += "\"\"";
        else out += c;
    }
    out += '"';
    return out;
}

std::vector<std::string> csv_split_row(const std::string& line) {
    std::vector<std::string> fields;
    std::string field;
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (quoted) {
            if (c == '"') {
                if (i + 1 < line.size() && line[i + 1] == '"') {
                    field += '"';
                    ++i;
                } else {
                    quoted = false;
                }
            } else {
                field += c;
            }
        } else if (c == '"') {
            quoted = true;
        } else if (c == ',') {
            fields.push_back(std::move(field));
            field.clear();
        } else if (c != '\r') {
            field += c;
        }
    }
    fields.push_back(std::move(field));
    return fields;
}

CsvWriter::CsvWriter(const std::string& path, const std::vector<std::string>& header)
    : out_(path), width_(header.size()) {
    RELPERF_REQUIRE(!header.empty(), "CsvWriter: header must be non-empty");
    if (!out_) {
        throw Error("CsvWriter: cannot open '" + path + "' for writing");
    }
    write_row(header);
}

void CsvWriter::add_row(const std::vector<std::string>& row) {
    RELPERF_REQUIRE(row.size() == width_, "CsvWriter: row width mismatch");
    write_row(row);
}

void CsvWriter::write_row(const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
        if (i != 0) out_ << ',';
        out_ << csv_escape(row[i]);
    }
    out_ << '\n';
}

void CsvWriter::close() {
    if (out_.is_open()) {
        out_.flush();
        out_.close();
    }
}

CsvWriter::~CsvWriter() {
    close();
}

} // namespace relperf::support
