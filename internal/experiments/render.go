package experiments

import (
	"fmt"
	"sort"
	"strings"

	"approxnoc/internal/compress"
	"approxnoc/internal/traffic"
)

// FormatFig9 renders the latency-breakdown table.
func FormatFig9(rows []Fig9Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 9 — Average packet latency breakdown (cycles) and data quality\n")
	fmt.Fprintf(&b, "%-14s %-9s %8s %8s %8s %8s %9s\n",
		"benchmark", "scheme", "queue", "net", "decode", "total", "quality")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-9s %8.2f %8.2f %8.2f %8.2f %9.4f\n",
			r.Benchmark, r.Scheme, r.QueueLat, r.NetLat, r.DecodeLat, r.TotalLat, r.Quality)
	}
	return b.String()
}

// FormatFig10 renders the encoded-fraction and compression-ratio table.
func FormatFig10(rows []Fig10Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 10 — Encoded word fraction (exact/approx) and compression ratio\n")
	fmt.Fprintf(&b, "%-14s %-9s %8s %8s %8s %8s\n",
		"benchmark", "scheme", "exact", "approx", "encoded", "ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-9s %8.3f %8.3f %8.3f %8.3f\n",
			r.Benchmark, r.Scheme, r.ExactFrac, r.ApproxFrac, r.EncodedFrac, r.Ratio)
	}
	return b.String()
}

// FormatFig11 renders the normalized injected-data-flit table.
func FormatFig11(rows []Fig11Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 11 — Data flits injected, normalized to Baseline\n")
	fmt.Fprintf(&b, "%-14s %-9s %10s\n", "benchmark", "scheme", "norm flits")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-9s %10.3f\n", r.Benchmark, r.Scheme, r.NormFlits)
	}
	return b.String()
}

// FormatFig12 renders the load-latency curves as series.
func FormatFig12(pts []Fig12Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 12 — Latency vs injection rate (25:75 data:control)\n")
	type key struct {
		bench   string
		pattern traffic.Pattern
		scheme  compress.Scheme
	}
	series := map[key][]Fig12Point{}
	var keys []key
	for _, p := range pts {
		k := key{p.Benchmark, p.Pattern, p.Scheme}
		if _, ok := series[k]; !ok {
			keys = append(keys, k)
		}
		series[k] = append(series[k], p)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, c := keys[i], keys[j]
		if a.bench != c.bench {
			return a.bench < c.bench
		}
		if a.pattern != c.pattern {
			return a.pattern < c.pattern
		}
		return a.scheme < c.scheme
	})
	for _, k := range keys {
		fmt.Fprintf(&b, "%-14s %-15s %-9s ", k.bench, k.pattern, k.scheme)
		for _, p := range series[k] {
			if p.Saturated {
				fmt.Fprintf(&b, " %4.2f:SAT ", p.Rate)
			} else {
				fmt.Fprintf(&b, " %4.2f:%-5.1f", p.Rate, p.Latency)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatFig13 renders the error-threshold sensitivity table.
func FormatFig13(rows []Fig13Row, thresholds []int) string {
	if len(thresholds) == 0 {
		thresholds = []int{5, 10, 20}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 13 — Error threshold sensitivity (latency, cycles; quality in parens)\n")
	fmt.Fprintf(&b, "%-14s %-9s %9s", "benchmark", "family", "exact")
	for _, th := range thresholds {
		fmt.Fprintf(&b, " %16d%%", th)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-9s %9.2f", r.Benchmark, r.Family, r.ExactLat)
		for _, th := range thresholds {
			fmt.Fprintf(&b, " %8.2f (%.4f)", r.ThresholdLat[th], r.ThresholdQuality[th])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatFig14 renders the approximable-ratio sensitivity table.
func FormatFig14(rows []Fig14Row, ratios []int) string {
	if len(ratios) == 0 {
		ratios = []int{25, 50, 75}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 14 — Approximable packet ratio sensitivity (avg packet latency, cycles)\n")
	fmt.Fprintf(&b, "%-14s %-9s %9s", "benchmark", "family", "exact")
	for _, ratio := range ratios {
		fmt.Fprintf(&b, " %7d%%", ratio)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-9s %9.2f", r.Benchmark, r.Family, r.ExactLat)
		for _, ratio := range ratios {
			fmt.Fprintf(&b, " %8.2f", r.RatioLat[ratio])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatFig15 renders the normalized dynamic power table.
func FormatFig15(rows []Fig15Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 15 — Dynamic power normalized to Baseline\n")
	fmt.Fprintf(&b, "%-14s %-9s %10s %10s\n", "benchmark", "scheme", "norm", "mW")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-9s %10.3f %10.2f\n", r.Benchmark, r.Scheme, r.NormPower, r.PowerMW)
	}
	return b.String()
}

// FormatFig16 renders the application error/performance table.
func FormatFig16(rows []Fig16Row, thresholds []int) string {
	if len(thresholds) == 0 {
		thresholds = []int{0, 10, 20}
	}
	var b strings.Builder
	b.WriteString("Fig. 16 — Application output error and normalized performance\n")
	fmt.Fprintf(&b, "%-14s", "benchmark")
	for _, th := range thresholds {
		fmt.Fprintf(&b, "  err@%-3d%%", th)
	}
	for _, th := range thresholds {
		fmt.Fprintf(&b, " perf@%-3d%%", th)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s", r.Benchmark)
		for _, th := range thresholds {
			fmt.Fprintf(&b, " %8.4f", r.ErrorAt[th])
		}
		for _, th := range thresholds {
			fmt.Fprintf(&b, " %9.3f", r.PerfAt[th])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatFig17 renders the bodytrack output comparison.
func FormatFig17(r Fig17Result) string {
	return fmt.Sprintf(
		"Fig. 17 — Bodytrack precise vs approximate output\n  pose vector difference: %.4f (paper: ~0.024)\n  PSNR: %.1f dB over %d pose coordinates\n",
		r.VectorDiff, r.PSNR, r.Joints)
}

// FormatAblationOverlap renders the §4.3 optimization ablation.
func FormatAblationOverlap(rows []AblationOverlapRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — §4.3 latency-hiding optimizations\n")
	fmt.Fprintf(&b, "%-14s %-9s %10s %10s\n", "benchmark", "scheme", "overlap on", "off")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-9s %10.2f %10.2f\n", r.Benchmark, r.Scheme, r.LatencyOn, r.LatencyOff)
	}
	return b.String()
}

// FormatAblationWindow renders the §7 windowed-budget ablation.
func FormatAblationWindow(rows []AblationWindowRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — per-word vs windowed error budget (FP-VAXX, §7 future work)\n")
	fmt.Fprintf(&b, "%-14s %-9s %10s %8s %9s %9s\n", "benchmark", "budget", "approx", "ratio", "quality", "latency")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-9s %10.3f %8.3f %9.4f %9.2f\n",
			r.Benchmark, r.Mode, r.ApproxFrac, r.Ratio, r.Quality, r.Latency)
	}
	return b.String()
}

// FormatAblationRouter renders the router-provisioning sweep.
func FormatAblationRouter(rows []AblationRouterRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — router provisioning (VCs x buffer depth)\n")
	fmt.Fprintf(&b, "%-14s %-9s %5s %7s %10s\n", "benchmark", "scheme", "VCs", "depth", "latency")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-9s %5d %7d %10.2f\n", r.Benchmark, r.Scheme, r.VCs, r.BufDepth, r.Latency)
	}
	return b.String()
}

// FormatAblationMatchUnits renders the parallel-matching-unit sweep.
func FormatAblationMatchUnits(rows []AblationMatchUnitsRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — parallel matching units (§4.3 provisions 8)\n")
	fmt.Fprintf(&b, "%-14s %-9s %7s %10s\n", "benchmark", "scheme", "units", "latency")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-9s %7d %10.2f\n", r.Benchmark, r.Scheme, r.Units, r.Latency)
	}
	return b.String()
}

// FormatExtensionBDI renders the base-delta extension comparison.
func FormatExtensionBDI(rows []ExtensionBDIRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — base-delta comparator (all seven schemes)\n")
	fmt.Fprintf(&b, "%-14s %-9s %9s %8s %9s\n", "benchmark", "scheme", "latency", "ratio", "quality")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-9s %9.2f %8.3f %9.4f\n", r.Benchmark, r.Scheme, r.Latency, r.Ratio, r.Quality)
	}
	return b.String()
}

// FormatAblationAdaptive renders the adaptive on/off controller ablation.
func FormatAblationAdaptive(rows []AblationAdaptiveRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — adaptive compression on/off controller (Jin et al.)\n")
	fmt.Fprintf(&b, "%-14s %-9s %10s %10s\n", "benchmark", "scheme", "plain", "adaptive")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-9s %10.2f %10.2f\n", r.Benchmark, r.Scheme, r.LatencyPlain, r.LatencyAdaptive)
	}
	return b.String()
}

// FormatAblationPMT renders the PMT-size ablation.
func FormatAblationPMT(rows []AblationPMTRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — DI-VAXX PMT size\n")
	fmt.Fprintf(&b, "%-14s %8s %10s %10s\n", "benchmark", "entries", "latency", "ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %8d %10.2f %10.3f\n", r.Benchmark, r.Entries, r.Latency, r.Ratio)
	}
	return b.String()
}
