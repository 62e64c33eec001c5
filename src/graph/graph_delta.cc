#include "graph/graph_delta.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace fast {

namespace {

// Directed (u, w) key: sorting keys groups them into per-u runs ordered by w.
std::uint64_t ArcKey(VertexId u, VertexId w) {
  return (static_cast<std::uint64_t>(u) << 32) | w;
}
VertexId ArcSource(std::uint64_t key) { return static_cast<VertexId>(key >> 32); }
VertexId ArcTarget(std::uint64_t key) { return static_cast<VertexId>(key); }

struct ArcAdd {
  std::uint64_t key;
  Label label;
};

}  // namespace

std::string GraphDelta::Summary() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "+%zuv -%zuv +%zue -%zue", add_vertices.size(),
                remove_vertices.size(), add_edges.size(), remove_edges.size());
  return buf;
}

StatusOr<Graph> ApplyDelta(const Graph& base, const GraphDelta& delta) {
  const std::size_t n_base = base.NumVertices();
  const std::size_t n_ext = n_base + delta.add_vertices.size();

  std::vector<char> removed(n_ext, 0);
  for (VertexId v : delta.remove_vertices) {
    if (v >= n_ext) {
      return Status::InvalidArgument("remove_vertices: id " + std::to_string(v) +
                                     " out of range (extended |V| = " +
                                     std::to_string(n_ext) + ")");
    }
    removed[v] = 1;
  }
  // Removed base edges and added edges as per-vertex sorted runs, both
  // directions of every edge.
  std::vector<std::uint64_t> cuts;
  cuts.reserve(2 * delta.remove_edges.size());
  for (const auto& [u, v] : delta.remove_edges) {
    if (u >= n_ext || v >= n_ext) {
      return Status::InvalidArgument("remove_edges: endpoint out of range");
    }
    cuts.push_back(ArcKey(u, v));
    cuts.push_back(ArcKey(v, u));
  }
  std::sort(cuts.begin(), cuts.end());
  std::vector<ArcAdd> adds;
  adds.reserve(2 * delta.add_edges.size());
  bool add_labels = false;
  for (const GraphDelta::EdgeAdd& e : delta.add_edges) {
    if (e.u >= n_ext || e.v >= n_ext) {
      return Status::InvalidArgument("add_edges: endpoint out of range");
    }
    // An edge incident to a vertex removed in the same delta: removal wins.
    if (removed[e.u] || removed[e.v] || e.u == e.v) continue;
    adds.push_back({ArcKey(e.u, e.v), e.label});
    adds.push_back({ArcKey(e.v, e.u), e.label});
    // Like GraphBuilder, a labelled add marks the graph labelled even when a
    // base edge wins the dedup below.
    add_labels |= e.label != 0;
  }
  // Stable sort + unique keeps the first add of each edge in add_edges order.
  std::stable_sort(adds.begin(), adds.end(),
                   [](const ArcAdd& a, const ArcAdd& b) { return a.key < b.key; });
  adds.erase(std::unique(adds.begin(), adds.end(),
                         [](const ArcAdd& a, const ArcAdd& b) { return a.key == b.key; }),
             adds.end());

  // Surviving vertices, compacted in extended-numbering order. new_id is
  // monotone, so remapped adjacency lists stay sorted.
  Graph g;
  std::vector<VertexId> new_id(n_ext, kInvalidVertex);
  g.labels_.reserve(n_ext);
  for (std::size_t v = 0; v < n_ext; ++v) {
    if (removed[v]) continue;
    new_id[v] = static_cast<VertexId>(g.labels_.size());
    g.labels_.push_back(v < n_base ? base.label(static_cast<VertexId>(v))
                                   : delta.add_vertices[v - n_base]);
  }
  const bool remap = g.labels_.size() != n_ext;
  const bool base_labels = base.has_edge_labels();
  const bool write_labels = base_labels || add_labels;

  const std::size_t bound = base.adjacency_.size() + adds.size();
  g.offsets_.resize(g.labels_.size() + 1);
  g.adjacency_.resize(bound);
  if (write_labels) g.edge_labels_.resize(bound);
  std::size_t out = 0;
  auto cut = cuts.begin();
  auto add = adds.begin();
  for (std::size_t v = 0; v < n_ext; ++v) {
    const auto vid = static_cast<VertexId>(v);
    const auto cut_begin = cut;
    while (cut != cuts.end() && ArcSource(*cut) == vid) ++cut;
    const auto add_begin = add;
    while (add != adds.end() && ArcSource(add->key) == vid) ++add;
    if (removed[v]) continue;
    g.offsets_[new_id[v]] = out;

    const std::size_t base_at = v < n_base ? base.offsets_[v] : 0;
    const std::size_t base_len = v < n_base ? base.degree(vid) : 0;
    const VertexId* nbrs = base.adjacency_.data() + base_at;
    const auto emit = [&](VertexId w, Label l) {
      g.adjacency_[out] = new_id[w];
      if (write_labels) g.edge_labels_[out] = l;
      ++out;
    };
    if (!remap && cut_begin == cut && add_begin == add) {
      // Untouched and no ids shift: the base list is already the output.
      std::copy(nbrs, nbrs + base_len, g.adjacency_.begin() + out);
      if (base_labels) {
        std::copy(base.edge_labels_.begin() + base_at,
                  base.edge_labels_.begin() + base_at + base_len,
                  g.edge_labels_.begin() + out);
      }
      out += base_len;
      continue;
    }
    // Merge the filtered base list with the add run by extended id; on a tie
    // the base edge (and its label) wins, as GraphBuilder's first-seen dedup.
    auto c = cut_begin;
    auto a = add_begin;
    for (std::size_t i = 0; i < base_len; ++i) {
      const VertexId w = nbrs[i];
      if (removed[w]) continue;
      while (c != cut && ArcTarget(*c) < w) ++c;
      if (c != cut && ArcTarget(*c) == w) continue;
      for (; a != add && ArcTarget(a->key) <= w; ++a) {
        if (ArcTarget(a->key) < w) emit(ArcTarget(a->key), a->label);
      }
      emit(w, base.EdgeLabelAt(vid, i));
    }
    for (; a != add; ++a) emit(ArcTarget(a->key), a->label);
  }
  g.offsets_[g.labels_.size()] = out;
  g.adjacency_.resize(out);
  // The output is labelled when an add carried a label or a non-zero base
  // label survived, exactly when GraphBuilder would have kept the array.
  const bool labelled =
      add_labels || (base_labels && std::any_of(g.edge_labels_.begin(),
                                                g.edge_labels_.begin() + out,
                                                [](Label l) { return l != 0; }));
  g.edge_labels_.resize(labelled ? out : 0);
  if (!labelled) g.edge_labels_.shrink_to_fit();
  FAST_RETURN_IF_ERROR(g.FinishIndexes());
  return g;
}

StatusOr<GraphDelta> ParseDeltaText(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  GraphDelta delta;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    auto fail = [&](const char* what) {
      return Status::InvalidArgument("line " + std::to_string(line_no) + ": " + what);
    };
    // Unlike a failed field read, leftover text is a hard error: "ae 4 5 1O"
    // (typo'd label) must not silently become label 1 + ignored garbage —
    // the swapped-in snapshot would quietly answer queries differently. The
    // 32-bit range check is a hard error for the same reason: "rv 2^32"
    // truncated to uint32 would silently remove vertex 0.
    auto at_end = [&ls] {
      ls.clear();
      std::string rest;
      return !(ls >> rest);
    };
    constexpr std::uint64_t kMax32 = 0xFFFFFFFFull;
    if (tag == "av") {
      std::uint64_t label = 0;
      if (!(ls >> label)) return fail("bad av record (want: av <label>)");
      if (!at_end()) return fail("trailing text after av record");
      if (label > kMax32) return fail("av label exceeds 32 bits");
      delta.add_vertices.push_back(static_cast<Label>(label));
    } else if (tag == "rv") {
      std::uint64_t id = 0;
      if (!(ls >> id)) return fail("bad rv record (want: rv <id>)");
      if (!at_end()) return fail("trailing text after rv record");
      if (id > kMax32) return fail("rv id exceeds 32 bits");
      delta.remove_vertices.push_back(static_cast<VertexId>(id));
    } else if (tag == "ae") {
      std::uint64_t u = 0, v = 0, label = 0;
      if (!(ls >> u >> v)) return fail("bad ae record (want: ae <u> <v> [label])");
      ls >> label;  // optional third field
      if (!at_end()) return fail("trailing text after ae record");
      if (u > kMax32 || v > kMax32 || label > kMax32) {
        return fail("ae field exceeds 32 bits");
      }
      delta.add_edges.push_back({static_cast<VertexId>(u), static_cast<VertexId>(v),
                                 static_cast<Label>(label)});
    } else if (tag == "re") {
      std::uint64_t u = 0, v = 0;
      if (!(ls >> u >> v)) return fail("bad re record (want: re <u> <v>)");
      if (!at_end()) return fail("trailing text after re record");
      if (u > kMax32 || v > kMax32) return fail("re endpoint exceeds 32 bits");
      delta.remove_edges.emplace_back(static_cast<VertexId>(u),
                                      static_cast<VertexId>(v));
    } else {
      return fail("unknown op tag (want av/rv/ae/re)");
    }
  }
  return delta;
}

GraphDelta RandomChurnDelta(const Graph& base, std::size_t edge_churn, Rng& rng) {
  GraphDelta delta;
  const std::size_t n = base.NumVertices();
  if (n < 2) return delta;
  for (std::size_t i = 0; i < edge_churn; ++i) {
    const auto u = static_cast<VertexId>(rng.Uniform(n));
    const auto v = static_cast<VertexId>(rng.Uniform(n));
    if (u != v) delta.add_edges.push_back({u, v, 0});  // duplicates dedup away
  }
  for (std::size_t i = 0; i < edge_churn; ++i) {
    // A few attempts to land on a vertex that still has edges; sparse or
    // empty graphs just produce a smaller removal batch.
    for (int attempt = 0; attempt < 8; ++attempt) {
      const auto u = static_cast<VertexId>(rng.Uniform(n));
      const auto d = base.degree(u);
      if (d == 0) continue;
      delta.remove_edges.emplace_back(u, base.neighbors(u)[rng.Uniform(d)]);
      break;
    }
  }
  return delta;
}

StatusOr<GraphDelta> LoadDeltaFile(const std::string& path) {
  std::ifstream f(path);
  if (!f) return Status::NotFound("cannot open " + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  return ParseDeltaText(buf.str());
}

}  // namespace fast
