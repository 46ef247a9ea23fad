package obs

import (
	"strconv"
	"strings"
	"testing"
)

// promSample is one parsed exposition line: name{labels} value.
type promSample struct {
	name   string
	labels map[string]string
	value  int64
}

// parseProm parses Prometheus text exposition the way a scraper would,
// undoing label-value escaping. It fails the test on any malformed line,
// so the round-trip below pins spec conformance of WritePrometheus.
func parseProm(t *testing.T, text string) []promSample {
	t.Helper()
	var out []promSample
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed line (no value): %q", line)
		}
		v, err := strconv.ParseInt(line[sp+1:], 10, 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		s := promSample{name: line[:sp], labels: map[string]string{}, value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			body := s.name[i+1 : len(s.name)-1]
			if s.name[len(s.name)-1] != '}' {
				t.Fatalf("malformed labels in %q", line)
			}
			s.labels = parsePromLabels(t, body)
			s.name = s.name[:i]
		}
		out = append(out, s)
	}
	return out
}

func parsePromLabels(t *testing.T, s string) map[string]string {
	t.Helper()
	m := map[string]string{}
	i := 0
	for i < len(s) {
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			t.Fatalf("malformed label pair at %q", s[i:])
		}
		key := s[i : i+eq]
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			t.Fatalf("label %s missing opening quote at %q", key, s[i:])
		}
		i++
		var b strings.Builder
		for i < len(s) && s[i] != '"' {
			if s[i] == '\\' {
				i++
				switch s[i] {
				case 'n':
					b.WriteByte('\n')
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				default:
					t.Fatalf("unknown escape \\%c in label %s", s[i], key)
				}
			} else {
				b.WriteByte(s[i])
			}
			i++
		}
		if i >= len(s) {
			t.Fatalf("label %s missing closing quote", key)
		}
		i++ // closing quote
		m[key] = b.String()
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
	return m
}

// labelsKey renders a sample's labels minus le, to group one histogram
// series' bucket lines.
func labelsKey(labels map[string]string) string {
	parts := make([]string, 0, len(labels))
	for k, v := range labels {
		if k == "le" {
			continue
		}
		parts = append(parts, k+"="+v)
	}
	// Order-insensitive: the sets are tiny, insertion sort via compare.
	for i := 1; i < len(parts); i++ {
		for j := i; j > 0 && parts[j] < parts[j-1]; j-- {
			parts[j], parts[j-1] = parts[j-1], parts[j]
		}
	}
	return strings.Join(parts, ",")
}

// TestPrometheusRoundTrip writes a registry holding every instrument
// kind — including labeled series with characters that need escaping —
// then parses the exposition back and checks the histogram contract:
// all 48 cumulative buckets per series, monotone, le="+Inf" equal to
// the series' _count, and labeled _sum/_count present.
func TestPrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("rt_plain_total", "t").Add(5)
	r.NewGauge("rt_plain_depth", "t").Set(-3)
	h := r.NewHistogram("rt_plain_ns", "t")
	h.Observe(1)
	h.Observe(100)
	h.Observe(1 << 30)

	evil := "q\"uo\\te\nline"
	cv := r.NewCounter("rt_labeled_total", "t", "query", "backend")
	cv.Add(2, evil, "psi")
	cv.Add(9, "Q3", "gc")
	hv := r.NewHistogram("rt_labeled_ns", "t", "query")
	hv.Observe(7, evil)
	hv.Observe(7000, evil)
	hv.Observe(3, "Q3")

	var b strings.Builder
	r.WritePrometheus(&b)
	samples := parseProm(t, b.String())

	// Escaped label values survive the round trip.
	var sawEvil bool
	for _, s := range samples {
		if s.name == "rt_labeled_total" && s.labels["query"] == evil && s.labels["backend"] == "psi" {
			sawEvil = true
			if s.value != 2 {
				t.Errorf("escaped series value = %d, want 2", s.value)
			}
		}
	}
	if !sawEvil {
		t.Errorf("escaped label value did not round-trip through the parser")
	}

	// Histogram contract, for the plain and both labeled series.
	type series struct {
		buckets map[string]int64
		sum     *int64
		count   *int64
	}
	hists := map[string]map[string]*series{} // name -> labelsKey -> series
	get := func(name, key string) *series {
		if hists[name] == nil {
			hists[name] = map[string]*series{}
		}
		if hists[name][key] == nil {
			hists[name][key] = &series{buckets: map[string]int64{}}
		}
		return hists[name][key]
	}
	for _, s := range samples {
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			base := strings.TrimSuffix(s.name, "_bucket")
			get(base, labelsKey(s.labels)).buckets[s.labels["le"]] = s.value
		case strings.HasSuffix(s.name, "_sum"):
			v := s.value
			get(strings.TrimSuffix(s.name, "_sum"), labelsKey(s.labels)).sum = &v
		case strings.HasSuffix(s.name, "_count"):
			v := s.value
			get(strings.TrimSuffix(s.name, "_count"), labelsKey(s.labels)).count = &v
		}
	}
	for _, name := range []string{"rt_plain_ns", "rt_labeled_ns"} {
		if len(hists[name]) == 0 {
			t.Fatalf("histogram %s missing from exposition", name)
		}
		for key, sr := range hists[name] {
			if len(sr.buckets) != histBuckets {
				t.Errorf("%s{%s}: %d buckets, want %d", name, key, len(sr.buckets), histBuckets)
			}
			if sr.sum == nil || sr.count == nil {
				t.Fatalf("%s{%s}: missing _sum or _count", name, key)
			}
			var prev int64
			for i := 0; i < histBuckets; i++ {
				le := bucketBound(i)
				v, ok := sr.buckets[le]
				if !ok {
					t.Fatalf("%s{%s}: bucket le=%q missing", name, key, le)
				}
				if v < prev {
					t.Errorf("%s{%s}: bucket le=%q = %d not cumulative (prev %d)", name, key, le, v, prev)
				}
				prev = v
			}
			if inf := sr.buckets["+Inf"]; inf != *sr.count {
				t.Errorf("%s{%s}: le=+Inf bucket %d != _count %d", name, key, inf, *sr.count)
			}
		}
	}
	if got := len(hists["rt_labeled_ns"]); got != 2 {
		t.Errorf("rt_labeled_ns has %d series, want 2", got)
	}
}
