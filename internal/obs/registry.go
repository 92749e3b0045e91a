// Package obs is the observability layer: a concurrency-safe metrics
// registry and a non-blocking NoC event tracer, exposed over a text
// exposition format and an opt-in HTTP debug server.
//
// Metrics are pulled. A number lives in the struct or atomic of the
// layer that does the work (NetStats, OpStats, the shard counters, a
// stats.LatencyHist), and registering it is a Collector or GaugeFunc
// that reads it at scrape time; the registry holds no values of its
// own. Snapshot and WriteText are safe to call mid-run and observe a
// weakly-consistent point-in-time view.
//
// The instrumentation contract, enforced by tests: tracing,
// snapshotting and scraping never change simulation results. Two
// identically-seeded runs produce bit-identical statistics whether obs
// is enabled or disabled, and every read path is race-clean under the
// race detector.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"approxnoc/internal/stats"
)

// Type is the kind of a metric family, fixed at registration.
type Type uint8

const (
	// TypeCounter is a monotonically increasing count.
	TypeCounter Type = iota
	// TypeGauge is a value that can go up and down.
	TypeGauge
	// TypeHistogram is a log2-bucketed duration distribution.
	TypeHistogram
)

func (t Type) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Sample is one exposition value of a family: the label values (aligned
// with the family's label names), an optional name suffix ("_count",
// "_p99_ns", ...), and the value.
type Sample struct {
	LabelValues []string
	Suffix      string
	Value       float64
}

// FamilySnapshot is the point-in-time state of one metric family.
type FamilySnapshot struct {
	Name    string
	Help    string
	Type    Type
	Labels  []string
	Samples []Sample
}

// Snapshot is a weakly-consistent copy of every family in a registry,
// sorted by family name (and within a family by label values), so two
// snapshots of identical state render identically.
type Snapshot struct {
	Families []FamilySnapshot
}

// family is one registered metric family; collect pulls its samples
// from their owner at snapshot time.
type family struct {
	name    string
	help    string
	typ     Type
	labels  []string
	collect func() []Sample
}

// Registry is a set of metric families. All methods are safe for
// concurrent use. Registration methods panic on an invalid or duplicate
// name — registration happens at wiring time, where a silent error
// return would only be re-panicked by every caller.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName reports whether s is a legal metric or label name:
// snake_case ASCII starting with a letter.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register installs a family or panics on invalid/duplicate names.
func (r *Registry) register(f *family) {
	if !validName(f.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", f.name))
	}
	for _, l := range f.labels {
		if !validName(l) {
			panic(fmt.Sprintf("obs: metric %q has invalid label name %q", f.name, l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", f.name))
	}
	r.families[f.name] = f
}

// labelKey joins label values into a sort key; \xff cannot appear in
// exposition-legal label values.
func labelKey(values []string) string { return strings.Join(values, "\xff") }

// snapshot renders the family's current samples, sorted.
func (f *family) snapshot() FamilySnapshot {
	s := FamilySnapshot{Name: f.name, Help: f.help, Type: f.typ, Labels: f.labels, Samples: f.collect()}
	sort.SliceStable(s.Samples, func(i, j int) bool {
		a, b := s.Samples[i], s.Samples[j]
		if k, l := labelKey(a.LabelValues), labelKey(b.LabelValues); k != l {
			return k < l
		}
		return a.Suffix < b.Suffix
	})
	return s
}

// GaugeFunc registers a gauge whose value is pulled from fn at snapshot
// time. fn must be safe to call from any goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: TypeGauge,
		collect: func() []Sample { return []Sample{{Value: fn()}} }})
}

// Collector registers a family whose samples are pulled from collect at
// snapshot time — the bridge for statistics kept elsewhere (NetStats,
// OpStats, shard counters). collect must be safe to call from any
// goroutine and should return samples in a deterministic order.
func (r *Registry) Collector(name, help string, typ Type, labels []string, collect func() []Sample) {
	if collect == nil {
		panic(fmt.Sprintf("obs: metric %q registered with nil collector", name))
	}
	r.register(&family{name: name, help: help, typ: typ, labels: labels, collect: collect})
}

// Snapshot copies every family's current state, sorted by name.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	s := Snapshot{Families: make([]FamilySnapshot, len(fams))}
	for i, f := range fams {
		s.Families[i] = f.snapshot()
	}
	return s
}

// HistogramSamples renders one latency snapshot as the three samples a
// TypeHistogram family carries per label tuple: _count, _p50_ns and
// _p99_ns.
func HistogramSamples(labelValues []string, s stats.LatencySnapshot) []Sample {
	return []Sample{
		{LabelValues: labelValues, Suffix: "_count", Value: float64(s.Count())},
		{LabelValues: labelValues, Suffix: "_p50_ns", Value: float64(s.Quantile(0.50))},
		{LabelValues: labelValues, Suffix: "_p99_ns", Value: float64(s.Quantile(0.99))},
	}
}
