#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>

#include "common/logging.h"
#include "common/strings.h"
#include "common/timer.h"

namespace qfix {
namespace obs {

namespace {

/// Render a double the way the exposition expects: integral values as
/// integers, everything else with enough digits to survive a strtod
/// round trip of our edge values, +Inf spelled the Prometheus way.
std::string FormatValue(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (std::isnan(v)) return "NaN";
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    return StringPrintf("%.0f", v);
  }
  return StringPrintf("%.10g", v);
}

void AppendEscapedLabelValue(std::string* out, std::string_view value) {
  for (char c : value) {
    switch (c) {
      case '\\': *out += "\\\\"; break;
      case '"': *out += "\\\""; break;
      case '\n': *out += "\\n"; break;
      default: *out += c;
    }
  }
}

void AppendEscapedHelp(std::string* out, std::string_view help) {
  for (char c : help) {
    switch (c) {
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      default: *out += c;
    }
  }
}

void AppendLabels(std::string* out,
                  const std::vector<std::string>& label_names,
                  const std::vector<std::string>& label_values,
                  const char* extra_name = nullptr,
                  const std::string* extra_value = nullptr) {
  if (label_names.empty() && extra_name == nullptr) return;
  *out += '{';
  bool first = true;
  for (size_t i = 0; i < label_names.size(); ++i) {
    if (!first) *out += ',';
    first = false;
    *out += label_names[i];
    *out += "=\"";
    AppendEscapedLabelValue(out, label_values[i]);
    *out += '"';
  }
  if (extra_name != nullptr) {
    if (!first) *out += ',';
    *out += extra_name;
    *out += "=\"";
    AppendEscapedLabelValue(out, *extra_value);
    *out += '"';
  }
  *out += '}';
}

const char* KindName(MetricsRegistry::Kind kind) {
  switch (kind) {
    case MetricsRegistry::Kind::kCounter: return "counter";
    case MetricsRegistry::Kind::kGauge: return "gauge";
    case MetricsRegistry::Kind::kHistogram: return "histogram";
  }
  return "untyped";
}

}  // namespace

// ---------------------------------------------------------------------------
// Instruments

void Gauge::Add(double delta) {
  double cur = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

Histogram::Histogram(std::vector<double> upper_edges)
    : edges_(std::move(upper_edges)),
      buckets_(new std::atomic<uint64_t>[edges_.size() + 1]),
      exemplars_(new ExemplarSlot[edges_.size() + 1]) {
  for (size_t i = 0; i + 1 < edges_.size(); ++i) {
    QFIX_CHECK(edges_[i] < edges_[i + 1])
        << "histogram edges must be strictly ascending";
  }
  for (size_t i = 0; i <= edges_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Observe(double value) {
  if (std::isnan(value)) return;
  // Prometheus `le` bounds are inclusive: an observation equal to an
  // edge lands in that edge's bucket (lower_bound, not upper_bound).
  size_t idx = static_cast<size_t>(
      std::lower_bound(edges_.begin(), edges_.end(), value) - edges_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + value,
                                     std::memory_order_relaxed)) {
  }
}

void Histogram::ObserveWithExemplar(double value, std::string_view trace_id) {
  Observe(value);
  if (trace_id.empty() || std::isnan(value)) return;
  size_t idx = static_cast<size_t>(
      std::lower_bound(edges_.begin(), edges_.end(), value) - edges_.begin());
  ExemplarSlot& slot = exemplars_[idx];
  const double now = MonotonicSeconds();
  // Fast filter: not a new worst and the stored worst is still fresh —
  // nothing to do, no lock taken. This is the overwhelmingly common
  // outcome (most requests are not the bucket's recent maximum).
  double cur = slot.value.load(std::memory_order_relaxed);
  double stamp = slot.stamp_seconds.load(std::memory_order_relaxed);
  if (value < cur && now - stamp < kExemplarHorizonSeconds) return;
  std::lock_guard<std::mutex> lock(exemplar_mu_);
  cur = slot.value.load(std::memory_order_relaxed);
  stamp = slot.stamp_seconds.load(std::memory_order_relaxed);
  if (value < cur && now - stamp < kExemplarHorizonSeconds) return;
  slot.value.store(value, std::memory_order_relaxed);
  slot.stamp_seconds.store(now, std::memory_order_relaxed);
  slot.trace_id.assign(trace_id.data(), trace_id.size());
  has_exemplars_.store(true, std::memory_order_release);
}

Histogram::Exemplar Histogram::ExemplarFor(size_t i) const {
  QFIX_CHECK(i <= edges_.size());
  Exemplar out;
  if (!has_exemplars_.load(std::memory_order_acquire)) return out;
  std::lock_guard<std::mutex> lock(exemplar_mu_);
  const ExemplarSlot& slot = exemplars_[i];
  if (slot.trace_id.empty()) return out;
  out.value = slot.value.load(std::memory_order_relaxed);
  out.trace_id = slot.trace_id;
  return out;
}

uint64_t Histogram::BucketCount(size_t i) const {
  QFIX_CHECK(i <= edges_.size());
  return buckets_[i].load(std::memory_order_relaxed);
}

std::vector<double> DefaultLatencyBucketEdges() {
  std::vector<double> edges;
  // (64 << g) - 1 us: 63us, then one edge per doubling. 20 doublings
  // reach ~67s, past any served request's budget.
  for (int g = 0; g <= 20; ++g) edges.push_back(((64 << g) - 1) * 1e-6);
  return edges;
}

// ---------------------------------------------------------------------------
// Families

namespace internal {

/// Orders label-value lists element-wise whatever their string type, so
/// a list of string_views finds its series without building the key.
struct LabelsLess {
  using is_transparent = void;
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }
};

template <typename T>
using SeriesMap =
    std::map<std::vector<std::string>, std::unique_ptr<T>, LabelsLess>;

struct Family {
  std::string name;
  std::string help;
  MetricsRegistry::Kind kind = MetricsRegistry::Kind::kCounter;
  std::vector<std::string> label_names;
  std::vector<double> edges;  // histogram families only

  /// Guards the series maps; never held while a caller uses an
  /// instrument (pointers are stable — std::map nodes don't move).
  std::mutex mu;
  SeriesMap<Counter> counters;
  SeriesMap<Gauge> gauges;
  SeriesMap<Histogram> histograms;

  /// Non-null for callback families.
  MetricsRegistry::CollectFn collect;
};

/// The series of `f` in `series` labelled `labels`, built from `args`
/// on first use.
template <typename T, typename Labels, typename... Args>
T* Resolve(Family* f, SeriesMap<T>& series, const Labels& labels,
           const Args&... args) {
  QFIX_CHECK(labels.size() == f->label_names.size())
      << f->name << ": expected " << f->label_names.size()
      << " label values, got " << labels.size();
  std::lock_guard<std::mutex> lock(f->mu);
  auto it = series.find(labels);
  if (it == series.end()) {
    it = series
             .emplace(std::vector<std::string>(labels.begin(), labels.end()),
                      std::make_unique<T>(args...))
             .first;
  }
  return it->second.get();
}

}  // namespace internal

Counter* CounterFamily::WithLabels(std::vector<std::string> label_values) {
  return internal::Resolve(family_, family_->counters, label_values);
}

Counter* CounterFamily::WithLabels(
    std::initializer_list<std::string_view> label_values) {
  return internal::Resolve(family_, family_->counters, label_values);
}

Gauge* GaugeFamily::WithLabels(std::vector<std::string> label_values) {
  return internal::Resolve(family_, family_->gauges, label_values);
}

Gauge* GaugeFamily::WithLabels(
    std::initializer_list<std::string_view> label_values) {
  return internal::Resolve(family_, family_->gauges, label_values);
}

Histogram* HistogramFamily::WithLabels(std::vector<std::string> label_values) {
  return internal::Resolve(family_, family_->histograms, label_values,
                           family_->edges);
}

Histogram* HistogramFamily::WithLabels(
    std::initializer_list<std::string_view> label_values) {
  return internal::Resolve(family_, family_->histograms, label_values,
                           family_->edges);
}

// ---------------------------------------------------------------------------
// Registry

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

internal::Family* MetricsRegistry::AddFamily(
    std::string name, std::string help, Kind kind,
    std::vector<std::string> label_names) {
  QFIX_CHECK(ValidMetricName(name)) << "bad metric name: " << name;
  for (const std::string& label : label_names) {
    QFIX_CHECK(ValidLabelName(label))
        << name << ": bad label name: " << label;
    QFIX_CHECK(label != "le") << name << ": 'le' is reserved for histograms";
  }
  auto family = std::make_unique<internal::Family>();
  family->name = std::move(name);
  family->help = std::move(help);
  family->kind = kind;
  family->label_names = std::move(label_names);
  internal::Family* raw = family.get();
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = families_.emplace(raw->name, std::move(family));
  QFIX_CHECK(inserted) << "metric registered twice: " << it->first;
  return raw;
}

CounterFamily* MetricsRegistry::AddCounter(
    std::string name, std::string help,
    std::vector<std::string> label_names) {
  internal::Family* f = AddFamily(std::move(name), std::move(help),
                                  Kind::kCounter, std::move(label_names));
  std::lock_guard<std::mutex> lock(mu_);
  counter_handles_.emplace_back(new CounterFamily(f));
  return counter_handles_.back().get();
}

GaugeFamily* MetricsRegistry::AddGauge(std::string name, std::string help,
                                       std::vector<std::string> label_names) {
  internal::Family* f = AddFamily(std::move(name), std::move(help),
                                  Kind::kGauge, std::move(label_names));
  std::lock_guard<std::mutex> lock(mu_);
  gauge_handles_.emplace_back(new GaugeFamily(f));
  return gauge_handles_.back().get();
}

HistogramFamily* MetricsRegistry::AddHistogram(
    std::string name, std::string help, std::vector<double> upper_edges,
    std::vector<std::string> label_names) {
  QFIX_CHECK(!upper_edges.empty()) << name << ": histogram needs edges";
  internal::Family* f = AddFamily(std::move(name), std::move(help),
                                  Kind::kHistogram, std::move(label_names));
  f->edges = std::move(upper_edges);
  std::lock_guard<std::mutex> lock(mu_);
  histogram_handles_.emplace_back(new HistogramFamily(f));
  return histogram_handles_.back().get();
}

void MetricsRegistry::AddCallback(std::string name, std::string help,
                                  Kind kind,
                                  std::vector<std::string> label_names,
                                  CollectFn fn) {
  QFIX_CHECK(kind != Kind::kHistogram)
      << name << ": callback families must be counters or gauges";
  QFIX_CHECK(fn != nullptr) << name << ": null collect callback";
  internal::Family* f = AddFamily(std::move(name), std::move(help), kind,
                                  std::move(label_names));
  f->collect = std::move(fn);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot out;
  std::lock_guard<std::mutex> lock(mu_);
  out.families.reserve(families_.size());
  for (const auto& [name, family] : families_) {
    internal::Family* f = family.get();
    FamilySnapshot& fs = out.families.emplace_back(FamilySnapshot{
        name, f->help, f->kind, f->label_names, f->edges, {}});
    auto add = [&fs](std::vector<std::string> labels, double value) {
      FamilySnapshot::Series& series = fs.series.emplace_back();
      series.label_values = std::move(labels);
      series.value = value;
      return &series;
    };

    if (f->collect != nullptr) {
      std::vector<Sample> samples;
      f->collect(&samples);
      for (Sample& s : samples) {
        QFIX_CHECK(s.label_values.size() == f->label_names.size())
            << name << ": callback emitted " << s.label_values.size()
            << " label values";
        add(std::move(s.label_values), s.value);
      }
      continue;
    }

    // A family holds instruments of its own kind only, so at most one
    // of these maps is non-empty.
    std::lock_guard<std::mutex> series_lock(f->mu);
    for (const auto& [values, counter] : f->counters) {
      add(values, static_cast<double>(counter->Value()));
    }
    for (const auto& [values, gauge] : f->gauges) add(values, gauge->Value());
    for (const auto& [values, hist] : f->histograms) {
      // One relaxed read per bucket; the renderer derives _count from
      // the same reads, so a series stays internally consistent even
      // under concurrent Observe().
      FamilySnapshot::Series* s = add(values, 0.0);
      for (size_t b = 0; b <= hist->edges().size(); ++b) {
        s->buckets.push_back(hist->BucketCount(b));
        s->exemplars.push_back(hist->ExemplarFor(b));
      }
      s->sum = hist->Sum();
    }
  }
  return out;
}

std::string MetricsRegistry::RenderPrometheus() const {
  return Snapshot().RenderPrometheus();
}

// ---------------------------------------------------------------------------
// Snapshots

const FamilySnapshot* MetricsSnapshot::Find(std::string_view name) const {
  auto it = std::lower_bound(
      families.begin(), families.end(), name,
      [](const FamilySnapshot& f, std::string_view n) { return f.name < n; });
  return it != families.end() && it->name == name ? &*it : nullptr;
}

FamilySnapshot::Series MetricsSnapshot::Sum(
    std::string_view name, const std::vector<std::string>& labels) const {
  FamilySnapshot::Series total;
  const FamilySnapshot* f = Find(name);
  if (f == nullptr) return total;
  if (!f->edges.empty()) total.buckets.assign(f->edges.size() + 1, 0);
  for (const FamilySnapshot::Series& s : f->series) {
    if (labels.size() > s.label_values.size() ||
        !std::equal(labels.begin(), labels.end(), s.label_values.begin())) {
      continue;
    }
    total.value += s.value;
    total.sum += s.sum;
    for (size_t b = 0; b < s.buckets.size(); ++b) {
      total.buckets[b] += s.buckets[b];
    }
  }
  return total;
}

std::string MetricsSnapshot::RenderPrometheus() const {
  std::string out;
  out.reserve(16 * 1024);
  for (const FamilySnapshot& f : families) {
    const std::string& name = f.name;
    out += "# HELP ";
    out += name;
    out += ' ';
    AppendEscapedHelp(&out, f.help);
    out += '\n';
    out += "# TYPE ";
    out += name;
    out += ' ';
    out += KindName(f.kind);
    out += '\n';

    for (const FamilySnapshot::Series& s : f.series) {
      if (f.kind != MetricsRegistry::Kind::kHistogram) {
        out += name;
        AppendLabels(&out, f.label_names, s.label_values);
        out += ' ';
        out += FormatValue(s.value);
        out += '\n';
        continue;
      }
      // Buckets that carry an exemplar get an OpenMetrics-style
      // `# {trace_id="..."} v` suffix — our own parser/linter accept
      // it, and it is what links a scrape's latency spike to a retained
      // trace.
      uint64_t cumulative = 0;
      for (size_t b = 0; b < s.buckets.size(); ++b) {
        cumulative += s.buckets[b];
        std::string le =
            b < f.edges.size() ? FormatValue(f.edges[b]) : "+Inf";
        out += name;
        out += "_bucket";
        AppendLabels(&out, f.label_names, s.label_values, "le", &le);
        out += ' ';
        out += StringPrintf("%llu",
                            static_cast<unsigned long long>(cumulative));
        if (b < s.exemplars.size() && s.exemplars[b].valid()) {
          out += " # {trace_id=\"";
          AppendEscapedLabelValue(&out, s.exemplars[b].trace_id);
          out += "\"} ";
          out += FormatValue(s.exemplars[b].value);
        }
        out += '\n';
      }
      out += name;
      out += "_sum";
      AppendLabels(&out, f.label_names, s.label_values);
      out += ' ';
      out += FormatValue(s.sum);
      out += '\n';
      out += name;
      out += "_count";
      AppendLabels(&out, f.label_names, s.label_values);
      out += ' ';
      out += StringPrintf("%llu", static_cast<unsigned long long>(cumulative));
      out += '\n';
    }
  }
  return out;
}

double HistogramQuantile(double q, const std::vector<double>& edges,
                         const std::vector<uint64_t>& buckets) {
  uint64_t count = 0;
  for (uint64_t b : buckets) count += b;
  if (count == 0 || edges.empty()) return 0.0;
  const double rank = q * static_cast<double>(count);
  uint64_t below = 0;  // observations in the buckets before `b`
  for (size_t b = 0; b < edges.size() && b < buckets.size(); ++b) {
    if (static_cast<double>(below + buckets[b]) >= rank) {
      const double lower = b == 0 ? 0.0 : edges[b - 1];
      if (buckets[b] == 0) return lower;
      return lower + (edges[b] - lower) *
                         ((rank - static_cast<double>(below)) /
                          static_cast<double>(buckets[b]));
    }
    below += buckets[b];
  }
  return edges.back();  // the rank lies in +Inf
}

// ---------------------------------------------------------------------------
// Name validation

bool ValidMetricName(std::string_view name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name[0])) return false;
  for (char c : name.substr(1)) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

bool ValidLabelName(std::string_view name) {
  if (name.empty()) return false;
  if (name.size() >= 2 && name[0] == '_' && name[1] == '_') return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  };
  if (!head(name[0])) return false;
  for (char c : name.substr(1)) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Exposition parsing

const std::string* ParsedSample::FindLabel(std::string_view name) const {
  for (const auto& [key, value] : labels) {
    if (key == name) return &value;
  }
  return nullptr;
}

const std::string* ParsedSample::FindExemplarLabel(
    std::string_view name) const {
  for (const auto& [key, value] : exemplar_labels) {
    if (key == name) return &value;
  }
  return nullptr;
}

namespace {

Status ParseError(int line, const std::string& message) {
  return Status::InvalidArgument(
      StringPrintf("exposition line %d: %s", line, message.c_str()));
}

/// Parses a `{name="value",...}` block starting at (*ip) == '{';
/// advances *ip past the closing brace. Shared by sample labels and
/// exemplar labels.
Status ParseLabelBlock(
    std::string_view line, size_t* ip, int line_no,
    std::vector<std::pair<std::string, std::string>>* out) {
  size_t i = *ip + 1;  // past '{'
  while (true) {
    while (i < line.size() && (line[i] == ' ' || line[i] == ',')) ++i;
    if (i < line.size() && line[i] == '}') {
      ++i;
      break;
    }
    size_t eq = line.find('=', i);
    if (eq == std::string_view::npos) {
      return ParseError(line_no, "label without '='");
    }
    std::string label_name(line.substr(i, eq - i));
    i = eq + 1;
    if (i >= line.size() || line[i] != '"') {
      return ParseError(line_no, "label value must be quoted");
    }
    ++i;
    std::string value;
    bool closed = false;
    while (i < line.size()) {
      char c = line[i];
      if (c == '\\') {
        if (i + 1 >= line.size()) {
          return ParseError(line_no, "dangling escape in label value");
        }
        char next = line[i + 1];
        if (next == '\\') {
          value += '\\';
        } else if (next == '"') {
          value += '"';
        } else if (next == 'n') {
          value += '\n';
        } else {
          return ParseError(line_no, StringPrintf("bad escape \\%c", next));
        }
        i += 2;
        continue;
      }
      if (c == '"') {
        closed = true;
        ++i;
        break;
      }
      value += c;
      ++i;
    }
    if (!closed) return ParseError(line_no, "unterminated label value");
    out->emplace_back(std::move(label_name), std::move(value));
  }
  *ip = i;
  return Status::OK();
}

/// Parses one numeric sample value; accepts +Inf/-Inf/NaN spellings.
bool ParseSampleValue(std::string_view text, double* out) {
  if (text == "+Inf" || text == "Inf") {
    *out = std::numeric_limits<double>::infinity();
    return true;
  }
  if (text == "-Inf") {
    *out = -std::numeric_limits<double>::infinity();
    return true;
  }
  if (text == "NaN") {
    *out = std::numeric_limits<double>::quiet_NaN();
    return true;
  }
  std::string buf(text);
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(buf.c_str(), &end);
  if (end == buf.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

Result<ParsedExposition> ParseExposition(std::string_view text) {
  ParsedExposition out;
  int line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    std::string_view line = eol == std::string_view::npos
                                ? text.substr(pos)
                                : text.substr(pos, eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    if (line.empty()) continue;

    if (line[0] == '#') {
      // "# HELP name text" | "# TYPE name type" | arbitrary comment.
      if (line.rfind("# HELP ", 0) == 0) {
        std::string_view rest = line.substr(7);
        size_t sp = rest.find(' ');
        std::string name(sp == std::string_view::npos ? rest
                                                      : rest.substr(0, sp));
        std::string help_text;
        if (sp != std::string_view::npos) {
          std::string_view raw = rest.substr(sp + 1);
          for (size_t i = 0; i < raw.size(); ++i) {
            if (raw[i] == '\\' && i + 1 < raw.size()) {
              char next = raw[i + 1];
              if (next == 'n') {
                help_text += '\n';
                ++i;
                continue;
              }
              if (next == '\\') {
                help_text += '\\';
                ++i;
                continue;
              }
            }
            help_text += raw[i];
          }
        }
        if (name.empty()) return ParseError(line_no, "HELP without a name");
        out.help[name] = std::move(help_text);
        continue;
      }
      if (line.rfind("# TYPE ", 0) == 0) {
        std::string_view rest = line.substr(7);
        size_t sp = rest.find(' ');
        if (sp == std::string_view::npos) {
          return ParseError(line_no, "TYPE without a type");
        }
        std::string name(rest.substr(0, sp));
        std::string type(rest.substr(sp + 1));
        if (name.empty() || type.empty()) {
          return ParseError(line_no, "malformed TYPE line");
        }
        if (out.types.count(name) != 0) {
          return ParseError(line_no, "duplicate TYPE for " + name);
        }
        out.types[name] = std::move(type);
        out.type_line[name] = line_no;
        continue;
      }
      continue;  // plain comment
    }

    // Sample: name[{label="value",...}] value [timestamp]
    ParsedSample sample;
    sample.line = line_no;
    size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
    if (i == 0) return ParseError(line_no, "sample without a metric name");
    sample.name = std::string(line.substr(0, i));

    if (i < line.size() && line[i] == '{') {
      Status st = ParseLabelBlock(line, &i, line_no, &sample.labels);
      if (!st.ok()) return st;
    }

    while (i < line.size() && line[i] == ' ') ++i;
    size_t value_end = i;
    while (value_end < line.size() && line[value_end] != ' ') ++value_end;
    if (value_end == i) return ParseError(line_no, "sample without a value");
    if (!ParseSampleValue(line.substr(i, value_end - i), &sample.value)) {
      return ParseError(line_no, "unparseable sample value '" +
                                     std::string(line.substr(
                                         i, value_end - i)) +
                                     "'");
    }
    i = value_end;
    while (i < line.size() && line[i] == ' ') ++i;
    if (i < line.size() && line[i] == '#') {
      // OpenMetrics-style exemplar: `# {labels} value`.
      ++i;
      while (i < line.size() && line[i] == ' ') ++i;
      if (i >= line.size() || line[i] != '{') {
        return ParseError(line_no, "exemplar without a label block");
      }
      Status st = ParseLabelBlock(line, &i, line_no, &sample.exemplar_labels);
      if (!st.ok()) return st;
      while (i < line.size() && line[i] == ' ') ++i;
      size_t ex_end = i;
      while (ex_end < line.size() && line[ex_end] != ' ') ++ex_end;
      if (ex_end == i || !ParseSampleValue(line.substr(i, ex_end - i),
                                           &sample.exemplar_value)) {
        return ParseError(line_no, "exemplar without a value");
      }
      sample.has_exemplar = true;
    }
    // Anything else after the value is an optional timestamp; accept
    // and ignore (we never emit one).
    out.samples.push_back(std::move(sample));
  }
  return out;
}

namespace {

/// Family a sample belongs to: histogram series suffixes map back to
/// their base family when (and only when) that base is typed.
std::string FamilyOf(const std::string& sample_name,
                     const std::map<std::string, std::string>& types) {
  if (types.count(sample_name) != 0) return sample_name;
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    size_t len = std::strlen(suffix);
    if (sample_name.size() > len &&
        sample_name.compare(sample_name.size() - len, len, suffix) == 0) {
      std::string base = sample_name.substr(0, sample_name.size() - len);
      auto it = types.find(base);
      if (it != types.end() && it->second == "histogram") return base;
    }
  }
  return "";
}

std::string SeriesKey(const ParsedSample& sample) {
  std::vector<std::pair<std::string, std::string>> sorted = sample.labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key = sample.name;
  for (const auto& [name, value] : sorted) {
    key += '\x1f';
    key += name;
    key += '\x1e';
    key += value;
  }
  return key;
}

}  // namespace

Status LintExposition(std::string_view text) {
  auto parsed = ParseExposition(text);
  if (!parsed.ok()) return parsed.status();

  std::set<std::string> seen_series;
  // Histogram bookkeeping: family -> non-le label key -> bucket series.
  struct HistogramGroup {
    std::vector<std::pair<double, double>> buckets;  // (le, cumulative)
    bool has_sum = false;
    bool has_count = false;
    double count_value = 0.0;
    int first_line = 0;
  };
  std::map<std::string, HistogramGroup> groups;

  for (const ParsedSample& s : parsed->samples) {
    if (!ValidMetricName(s.name)) {
      return ParseError(s.line, "illegal metric name '" + s.name + "'");
    }
    std::set<std::string> label_names;
    for (const auto& [name, value] : s.labels) {
      (void)value;
      if (!ValidLabelName(name)) {
        return ParseError(s.line, "illegal label name '" + name + "'");
      }
      if (!label_names.insert(name).second) {
        return ParseError(s.line, "duplicate label '" + name + "'");
      }
    }
    if (!seen_series.insert(SeriesKey(s)).second) {
      return ParseError(s.line, "duplicate series for " + s.name);
    }

    std::string family = FamilyOf(s.name, parsed->types);
    if (family.empty()) {
      return ParseError(s.line, "sample " + s.name + " has no # TYPE");
    }
    auto declared = parsed->type_line.find(family);
    if (declared == parsed->type_line.end() || declared->second > s.line) {
      return ParseError(s.line,
                        "# TYPE for " + family + " must precede its samples");
    }
    const std::string& type = parsed->types.at(family);

    if (type == "counter") {
      if (std::isnan(s.value) || s.value < 0.0) {
        return ParseError(s.line, "counter " + s.name + " is negative/NaN");
      }
    }
    if (s.has_exemplar) {
      if (type != "histogram" || s.name != family + "_bucket") {
        return ParseError(s.line,
                          "exemplar on non-bucket series " + s.name);
      }
      for (const auto& [ex_name, ex_value] : s.exemplar_labels) {
        (void)ex_value;
        if (!ValidLabelName(ex_name)) {
          return ParseError(s.line,
                            "illegal exemplar label '" + ex_name + "'");
        }
      }
      const std::string* le = s.FindLabel("le");
      double bound = 0.0;
      if (le != nullptr && ParseSampleValue(*le, &bound) &&
          !(s.exemplar_value <= bound)) {
        return ParseError(s.line, "exemplar value above the bucket's le");
      }
    }
    if (type == "histogram") {
      // Group by the labels minus `le`.
      std::string group_key = family;
      std::vector<std::pair<std::string, std::string>> rest;
      const std::string* le = nullptr;
      for (const auto& label : s.labels) {
        if (label.first == "le") {
          le = &label.second;
        } else {
          rest.push_back(label);
        }
      }
      std::sort(rest.begin(), rest.end());
      for (const auto& [name, value] : rest) {
        group_key += '\x1f';
        group_key += name;
        group_key += '\x1e';
        group_key += value;
      }
      HistogramGroup& group = groups[group_key];
      if (group.first_line == 0) group.first_line = s.line;
      if (s.name == family + "_bucket") {
        if (le == nullptr) {
          return ParseError(s.line, s.name + " is missing its 'le' label");
        }
        double bound = 0.0;
        if (!ParseSampleValue(*le, &bound)) {
          return ParseError(s.line, "unparseable le '" + *le + "'");
        }
        group.buckets.emplace_back(bound, s.value);
      } else if (s.name == family + "_sum") {
        group.has_sum = true;
      } else if (s.name == family + "_count") {
        group.has_count = true;
        group.count_value = s.value;
      }
    }
  }

  for (const auto& [key, group] : groups) {
    std::string family = key.substr(0, key.find('\x1f'));
    auto fail = [&](const std::string& what) {
      return ParseError(group.first_line, "histogram " + family + ": " + what);
    };
    if (group.buckets.empty()) return fail("no _bucket series");
    for (size_t i = 0; i + 1 < group.buckets.size(); ++i) {
      if (!(group.buckets[i].first < group.buckets[i + 1].first)) {
        return fail("le bounds not strictly ascending");
      }
      if (group.buckets[i].second > group.buckets[i + 1].second) {
        return fail("cumulative bucket counts decrease");
      }
    }
    if (!std::isinf(group.buckets.back().first)) {
      return fail("missing +Inf bucket");
    }
    if (!group.has_sum) return fail("missing _sum");
    if (!group.has_count) return fail("missing _count");
    if (group.count_value != group.buckets.back().second) {
      return fail("_count disagrees with the +Inf bucket");
    }
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace qfix
