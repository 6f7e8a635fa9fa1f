#include "qc/artifact.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "phylo/newick.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace bfhrf::qc {
namespace {

std::string sanitize_line(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\r') {
      c = ' ';
    }
  }
  return s;
}

}  // namespace

void write_artifact(const std::string& path, const Artifact& artifact) {
  std::ofstream out(path);
  if (!out) {
    throw Error("write_artifact: cannot open '" + path + "' for writing");
  }
  out << "# bfhrf-verify artifact v1\n";
  char seed_buf[24];
  std::snprintf(seed_buf, sizeof seed_buf, "0x%llX",
                static_cast<unsigned long long>(artifact.seed));
  out << "seed " << seed_buf << "\n";
  out << "threads ";
  for (std::size_t i = 0; i < artifact.thread_counts.size(); ++i) {
    out << (i != 0 ? "," : "") << artifact.thread_counts[i];
  }
  out << "\n";
  out << "include_trivial " << (artifact.include_trivial ? 1 : 0) << "\n";
  if (!artifact.note.empty()) {
    out << "note " << sanitize_line(artifact.note) << "\n";
  }
  if (artifact.taxa) {
    for (const std::string& label : artifact.taxa->labels()) {
      out << "taxon " << label << "\n";
    }
  }
  for (const phylo::Tree& t : artifact.trees) {
    out << "tree " << phylo::write_newick(t) << "\n";
  }
  if (!out) {
    throw Error("write_artifact: write to '" + path + "' failed");
  }
}

Artifact read_artifact(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw Error("read_artifact: cannot open '" + path + "'");
  }
  Artifact a;
  a.taxa = std::make_shared<phylo::TaxonSet>();
  std::vector<std::string> newicks;
  std::string line;
  while (std::getline(in, line)) {
    const std::string_view trimmed = util::trim(line);
    if (trimmed.empty() || trimmed.front() == '#') {
      continue;
    }
    const std::size_t space = trimmed.find(' ');
    const std::string_view key = trimmed.substr(0, space);
    const std::string_view value =
        space == std::string_view::npos
            ? std::string_view{}
            : util::trim(trimmed.substr(space + 1));
    if (key == "seed") {
      a.seed = std::strtoull(std::string(value).c_str(), nullptr, 0);
    } else if (key == "threads") {
      // A replay starts every engine at each count, so a count is capped
      // as --threads is, before any engine or thread starts.
      a.thread_counts.clear();
      for (const std::string& part : util::split(value, ',')) {
        const std::size_t threads = util::parse_size(util::trim(part));
        if (threads > util::kMaxFlagThreads) {
          throw ParseError("read_artifact: line 'threads " +
                           std::string(value) + "' in '" + path +
                           "' asks for " + std::to_string(threads) +
                           " threads; the limit is " +
                           std::to_string(util::kMaxFlagThreads));
        }
        a.thread_counts.push_back(threads);
      }
    } else if (key == "include_trivial") {
      a.include_trivial = value == "1" || value == "true";
    } else if (key == "note") {
      a.note = std::string(value);
    } else if (key == "taxon") {
      if (value.empty()) {
        throw ParseError("read_artifact: empty taxon label");
      }
      a.taxa->add_or_get(value);
    } else if (key == "tree") {
      newicks.emplace_back(value);
    } else {
      throw ParseError("read_artifact: unknown key '" + std::string(key) +
                       "' in '" + path + "'");
    }
  }
  // The taxon block fixes the bit universe; reject trees that stray.
  if (!a.taxa->empty()) {
    a.taxa->freeze();
  }
  a.trees.reserve(newicks.size());
  for (const std::string& nwk : newicks) {
    a.trees.push_back(phylo::parse_newick(nwk, a.taxa));
  }
  if (a.trees.empty()) {
    throw ParseError("read_artifact: no trees in '" + path + "'");
  }
  return a;
}

}  // namespace bfhrf::qc
