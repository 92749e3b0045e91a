package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The text exposition format is Prometheus-flavoured and golden-pinned
// (internal/obs/testdata/golden_metrics.txt): families in name order,
// each introduced by optional "# HELP" and mandatory "# TYPE" comment
// lines, followed by one sample line per value:
//
//	# TYPE serve_latency_ns histogram
//	serve_latency_ns_count{shard="0"} 128
//	serve_latency_ns_p99_ns{shard="0"} 16383
//
// Histogram samples append a suffix to the family name. Values that are
// exact integers render without a decimal point; everything else uses
// Go's shortest round-trippable float form, so identical state always
// renders byte-identically.

// formatValue renders a sample value deterministically.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel renders a label value inside double quotes.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// WriteText renders a snapshot of the registry in the text exposition
// format. It is safe to call concurrently with metric updates.
func (r *Registry) WriteText(w io.Writer) error {
	snap := r.Snapshot()
	bw := bufio.NewWriter(w)
	for _, f := range snap.Families {
		if f.Help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.Name, f.Help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.Name, f.Type)
		for _, s := range f.Samples {
			bw.WriteString(f.Name)
			bw.WriteString(s.Suffix)
			if len(f.Labels) > 0 {
				bw.WriteByte('{')
				for i, l := range f.Labels {
					if i > 0 {
						bw.WriteByte(',')
					}
					v := ""
					if i < len(s.LabelValues) {
						v = s.LabelValues[i]
					}
					fmt.Fprintf(bw, `%s="%s"`, l, escapeLabel(v))
				}
				bw.WriteByte('}')
			}
			bw.WriteByte(' ')
			bw.WriteString(formatValue(s.Value))
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// Exposition is the result of parsing a /metrics scrape.
type Exposition struct {
	// Types maps each family name to its declared type string.
	Types map[string]string
	// Samples counts the value lines.
	Samples int
	// Values holds every parsed sample, keyed by the full sample name
	// (family + suffix) with its label block verbatim.
	Values map[string]float64
}

// ParseText parses the text exposition format, validating that every
// non-comment line is a well-formed sample under a declared family. It
// is the assertion backing `make obs-demo` and the scrape tests.
func ParseText(r io.Reader) (*Exposition, error) {
	exp := &Exposition{Types: make(map[string]string), Values: make(map[string]float64)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.SplitN(text, " ", 4)
			if len(fields) >= 3 && fields[1] == "TYPE" {
				exp.Types[fields[2]] = strings.TrimSpace(strings.Join(fields[3:], " "))
			}
			continue
		}
		name, rest, ok := splitSampleName(text)
		if !ok {
			return nil, fmt.Errorf("obs: line %d: malformed sample %q", line, text)
		}
		if !familyDeclared(exp.Types, name) {
			return nil, fmt.Errorf("obs: line %d: sample %q has no TYPE declaration", line, name)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: bad value in %q: %v", line, text, err)
		}
		exp.Values[name] = v
		exp.Samples++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return exp, nil
}

// splitSampleName splits "name{labels} value" into the name (with label
// block) and the value text.
func splitSampleName(line string) (name, value string, ok bool) {
	i := strings.IndexByte(line, '{')
	if i >= 0 {
		j := strings.IndexByte(line[i:], '}')
		if j < 0 {
			return "", "", false
		}
		end := i + j + 1
		if end >= len(line) || line[end] != ' ' {
			return "", "", false
		}
		return line[:end], line[end+1:], true
	}
	i = strings.IndexByte(line, ' ')
	if i <= 0 {
		return "", "", false
	}
	return line[:i], line[i+1:], true
}

// familyDeclared reports whether the sample name (possibly suffixed and
// labeled) belongs to a family with a TYPE line.
func familyDeclared(types map[string]string, sample string) bool {
	name := sample
	if i := strings.IndexByte(name, '{'); i >= 0 {
		name = name[:i]
	}
	for {
		if _, ok := types[name]; ok {
			return true
		}
		i := strings.LastIndexByte(name, '_')
		if i < 0 {
			return false
		}
		name = name[:i]
	}
}
