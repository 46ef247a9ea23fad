package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(3)
	if got := f.Records(); got == nil || len(got) != 0 {
		t.Fatalf("empty recorder Records() = %#v, want non-nil empty slice", got)
	}
	for i := 1; i <= 5; i++ {
		f.Record(QueryRecord{QID: uint64(i), Query: "Q3"})
	}
	if f.Len() != 3 {
		t.Fatalf("Len = %d, want 3", f.Len())
	}
	recs := f.Records()
	for i, wantQID := range []uint64{5, 4, 3} {
		if recs[i].QID != wantQID {
			t.Errorf("Records[%d].QID = %d, want %d (newest first, oldest evicted)", i, recs[i].QID, wantQID)
		}
	}
	f.SetCapacity(1)
	if f.Len() != 0 {
		t.Errorf("SetCapacity kept %d records, want 0", f.Len())
	}
	f.Record(QueryRecord{QID: 9})
	f.Record(QueryRecord{QID: 10})
	if recs := f.Records(); len(recs) != 1 || recs[0].QID != 10 {
		t.Errorf("capacity-1 recorder holds %+v, want only qid 10", recs)
	}
}

func TestFlightRecordJSONShape(t *testing.T) {
	r := QueryRecord{
		QID: 7, SID: 2, Party: "Alice", Peer: "Bob", Query: "Q3",
		PlanDigest: "deadbeef01234567", Steps: 12,
		Seconds: 1.5, Bytes: 1 << 20, Rounds: 40, OutputRows: 10,
		Phases: []PhaseStat{{Phase: "join", Bytes: 100, Rounds: 3, Seconds: 0.5}},
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for _, want := range []string{
		`"qid":7`, `"sid":2`, `"plan_digest":"deadbeef01234567"`,
		`"steps":12`, `"output_rows":10`, `"phases":[{"phase":"join"`,
	} {
		if !strings.Contains(string(b), want) {
			t.Errorf("record JSON missing %q:\n%s", want, b)
		}
	}
	// Zero-valued optional fields stay out of the wire format.
	b2, _ := json.Marshal(QueryRecord{QID: 1, Party: "Bob", Peer: "Alice", Query: "Q8"})
	for _, absent := range []string{"sid", "output_rows", "error", "blame", "phases"} {
		if strings.Contains(string(b2), `"`+absent+`"`) {
			t.Errorf("minimal record JSON should omit %q:\n%s", absent, b2)
		}
	}
}

func TestFlightTableRendering(t *testing.T) {
	recs := []QueryRecord{
		{QID: 2, SID: 1, Party: "Alice", Query: "Q10", PlanDigest: "0011223344556677",
			Steps: 9, Seconds: 0.25, Bytes: 2048, Rounds: 12,
			Phases: []PhaseStat{{Phase: "reveal", Bytes: 48, Rounds: 2, Seconds: 0.01}}},
		{QID: 1, Party: "Bob", Query: "Q3", PlanDigest: "aabbccddeeff0011",
			Steps: 4, Error: "peer timeout", Blame: "join/psi[orders]"},
	}
	var b strings.Builder
	WriteFlightTable(&b, recs)
	out := b.String()
	for _, want := range []string{
		"flight recorder (2 records, newest first):",
		"Q10", "0011223344556677",
		"phase   reveal",
		"error: peer timeout @ join/psi[orders]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q in:\n%s", want, out)
		}
	}
	var empty strings.Builder
	WriteFlightTable(&empty, nil)
	if !strings.Contains(empty.String(), "(0 records") {
		t.Errorf("empty table = %q", empty.String())
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f.Record(QueryRecord{QID: uint64(g*1000 + i)})
				if i%50 == 0 {
					f.Records()
					f.Len()
				}
			}
		}(g)
	}
	wg.Wait()
	if f.Len() != 8 {
		t.Errorf("Len = %d after concurrent records, want 8", f.Len())
	}
}
