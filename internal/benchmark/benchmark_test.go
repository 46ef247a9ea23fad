package benchmark

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"secyan/internal/queries"
	"secyan/internal/share"
	"secyan/internal/tpch"
)

func tinyOptions() Options {
	return Options{
		ScalesMB:    []float64{0.02, 0.05},
		SecureCapMB: 0.02, // second scale exercises the extrapolation path
		Ring:        share.Ring{Bits: 32},
		Seed:        3,
	}
}

func TestRunFigureProducesAllSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("secure TPC-H figure run skipped in -short mode")
	}
	pts, err := RunFigure(queries.Q3(), tinyOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	count := map[Method]int{}
	for _, p := range pts {
		count[p.Method]++
		if p.Seconds < 0 || p.Bytes < 0 || p.EffectiveBytes <= 0 {
			t.Fatalf("bad point: %+v", p)
		}
	}
	if count[MethodPlain] != 2 || count[MethodSecure] != 2 || count[MethodGC] != 2 {
		t.Fatalf("series incomplete: %v", count)
	}
}

func TestRunFigureExtrapolationMarksPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("secure TPC-H figure run skipped in -short mode")
	}
	pts, err := RunFigure(queries.Q3(), tinyOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		switch p.Method {
		case MethodGC:
			if !p.Extrapolated {
				t.Fatal("GC points must be extrapolated")
			}
		case MethodSecure:
			if p.ScaleMB > 0.02 && !p.Extrapolated {
				t.Fatal("secure point beyond the cap must be extrapolated")
			}
			if p.ScaleMB <= 0.02 && p.Extrapolated {
				t.Fatal("secure point under the cap must be measured")
			}
		}
	}
}

func TestPaperShapeHolds(t *testing.T) {
	// The qualitative result of the paper at any scale: plain < secure
	// Yannakakis < garbled circuit, in both time and communication.
	if testing.Short() {
		t.Skip("secure TPC-H figure run skipped in -short mode")
	}
	pts, err := RunFigure(queries.Q3(), tinyOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	at := map[Method]Point{}
	for _, p := range pts {
		if p.ScaleMB == 0.02 {
			at[p.Method] = p
		}
	}
	if !(at[MethodPlain].Seconds < at[MethodSecure].Seconds && at[MethodSecure].Seconds < at[MethodGC].Seconds) {
		t.Fatalf("time ordering violated: plain=%v secure=%v gc=%v",
			at[MethodPlain].Seconds, at[MethodSecure].Seconds, at[MethodGC].Seconds)
	}
	if !(at[MethodPlain].Bytes < at[MethodSecure].Bytes && at[MethodSecure].Bytes < at[MethodGC].Bytes) {
		t.Fatalf("communication ordering violated")
	}
}

func TestGCGrowsSuperlinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("secure TPC-H figure run skipped in -short mode")
	}
	pts, err := RunFigure(queries.Q3(), tinyOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var gcSmall, gcBig, effSmall, effBig float64
	for _, p := range pts {
		if p.Method != MethodGC {
			continue
		}
		if p.ScaleMB == 0.02 {
			gcSmall, effSmall = p.Bytes, float64(p.EffectiveBytes)
		} else {
			gcBig, effBig = p.Bytes, float64(p.EffectiveBytes)
		}
	}
	dataGrowth := effBig / effSmall
	costGrowth := gcBig / gcSmall
	if costGrowth < dataGrowth*dataGrowth {
		t.Fatalf("GC baseline not superlinear: data ×%.1f, cost ×%.1f", dataGrowth, costGrowth)
	}
}

func TestPrintFigureRendersBothPanels(t *testing.T) {
	if testing.Short() {
		t.Skip("secure TPC-H figure run skipped in -short mode")
	}
	pts, err := RunFigure(queries.Q3(), tinyOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	PrintFigure(&buf, queries.Q3(), pts)
	out := buf.String()
	for _, want := range []string{"Figure 2", "running time", "communication", "non-private", "secure-yannakakis", "garbled-circuit", "0.02MB"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure output missing %q:\n%s", want, out)
		}
	}
}

// TestWriteJSONSchema pins the machine-readable figure: WriteJSON emits
// only the documented keys, every scale carries all three methods, and
// secure points up to SecureCapMB are measured traffic, not estimates.
func TestWriteJSONSchema(t *testing.T) {
	if testing.Short() {
		t.Skip("secure TPC-H figure run skipped in -short mode")
	}
	opt := tinyOptions()
	pts, err := RunFigure(queries.Q3(), opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, pts); err != nil {
		t.Fatal(err)
	}
	var objs []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &objs); err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{
		"query": true, "scale_mb": true, "effective_bytes": true, "method": true,
		"seconds": true, "bytes": true, "extrapolated": true, "output_rows": true,
	}
	methods := map[float64]map[string]bool{}
	for _, o := range objs {
		for k := range o {
			if !allowed[k] {
				t.Errorf("unexpected key %q in %v", k, o)
			}
		}
		scale, _ := o["scale_mb"].(float64)
		method, _ := o["method"].(string)
		if methods[scale] == nil {
			methods[scale] = map[string]bool{}
		}
		methods[scale][method] = true
		if method == string(MethodSecure) && scale <= opt.SecureCapMB {
			if o["extrapolated"] == true {
				t.Errorf("secure point at %gMB is extrapolated, want measured", scale)
			}
			if b, _ := o["bytes"].(float64); b <= 0 {
				t.Errorf("secure point at %gMB has bytes %v, want > 0", scale, o["bytes"])
			}
		}
	}
	if len(methods) != len(opt.ScalesMB) {
		t.Fatalf("JSON covers scales %v, want %v", methods, opt.ScalesMB)
	}
	for scale, ms := range methods {
		for _, m := range []Method{MethodPlain, MethodSecure, MethodGC} {
			if !ms[string(m)] {
				t.Errorf("scale %gMB lacks method %s", scale, m)
			}
		}
	}
}

func TestHumanFormatting(t *testing.T) {
	cases := map[float64]string{
		500:         "500.0 B",
		2048:        "2.0 kB",
		3 * 1 << 20: "3.1 MB",
		1 << 40:     "1.1 TB",
		1.2e18:      "1.2 EB",
		9e21:        "9.0 ZB",
	}
	for in, want := range cases {
		if got := humanBytes(in); got != want {
			t.Errorf("humanBytes(%v) = %q, want %q", in, got, want)
		}
	}
	secs := map[float64]string{
		0.002:     "2.0 ms",
		5:         "5.00 s",
		7200:      "2.0 h",
		2 * 86400: "2.0 days",
		3.15576e9: "100.1 years",
	}
	for in, want := range secs {
		got := humanSeconds(Point{Method: MethodPlain, Seconds: in})
		if got != want {
			t.Errorf("humanSeconds(%v) = %q, want %q", in, got, want)
		}
	}
	if humanSeconds(Point{}) != "-" {
		t.Error("missing point must render as dash")
	}
	if got := humanSeconds(Point{Method: MethodGC, Seconds: 5, Extrapolated: true}); got != "5.00 s*" {
		t.Errorf("extrapolation star missing: %q", got)
	}
}

func TestQueryRelationSizesCoverAllQueries(t *testing.T) {
	db := tinyDB()
	for _, spec := range queries.All() {
		sizes := queryRelationSizes(spec, db)
		if len(sizes) < 3 {
			t.Errorf("%s: suspicious size vector %v", spec.Name, sizes)
		}
		for _, n := range sizes {
			if n <= 0 {
				t.Errorf("%s: non-positive size in %v", spec.Name, sizes)
			}
		}
	}
}

func tinyDB() *tpch.DB {
	return tpch.Generate(tpch.Config{ScaleMB: 0.05, Seed: 1})
}
