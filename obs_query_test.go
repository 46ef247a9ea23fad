package secyan

import (
	"context"
	"strings"
	"sync"
	"testing"

	"secyan/internal/obs"
)

// TestObsSessionEventPlumbing checks the query-scoped observability
// plumbing end to end through the public Session API: session open/close
// and query admit/start/step/finish events all carry the session ID
// minted at Open and the query ID minted at admission, and the flight
// record of the completed query carries the same pair.
func TestObsSessionEventPlumbing(t *testing.T) {
	lg := obs.Events()
	lg.Reset()
	lg.Enable()
	EnableObservability()
	obs.Flight().Reset()
	defer func() {
		lg.Disable()
		lg.Reset()
		obs.Disable()
		obs.Flight().Reset()
	}()

	q, rels := sessionExampleQuery(17, 10, 16)
	alice, bob := OpenLocal()
	if alice.SID() == 0 || bob.SID() == 0 || alice.SID() == bob.SID() {
		t.Fatalf("session IDs not minted distinctly: alice %d, bob %d", alice.SID(), bob.SID())
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(1)
	var berr error
	go func() {
		defer wg.Done()
		_, berr = bob.Query(ctx, viewFor(q, rels, Bob))
	}()
	res, aerr := alice.Query(ctx, viewFor(q, rels, Alice))
	wg.Wait()
	if aerr != nil || berr != nil {
		t.Fatalf("run: alice %v, bob %v", aerr, berr)
	}
	if res.Relation == nil {
		t.Fatal("Alice received no result")
	}
	alice.Close()
	bob.Close()

	// Events of Alice's session, via the public accessor.
	kinds := map[string]int{}
	var admitQID uint64
	for _, e := range RecentEvents(0) {
		if e.SID != alice.SID() {
			continue
		}
		kinds[e.Kind]++
		if e.Kind == "query.admit" {
			admitQID = e.QID
		}
	}
	for _, want := range []string{"session.open", "session.close", "query.admit", "query.start", "query.finish"} {
		if kinds[want] != 1 {
			t.Errorf("session %d has %d %s events, want 1 (all: %v)", alice.SID(), kinds[want], want, kinds)
		}
	}
	if kinds["query.step"] == 0 {
		t.Errorf("session %d has no query.step events: %v", alice.SID(), kinds)
	}
	if admitQID == 0 {
		t.Fatalf("query.admit carried no query ID")
	}
	for _, e := range RecentEvents(0) {
		if e.SID == alice.SID() && strings.HasPrefix(e.Kind, "query.") && e.QID != admitQID {
			t.Errorf("event %s carries qid %d, admission minted %d", e.Kind, e.QID, admitQID)
		}
	}

	// The flight record of Alice's side carries the same (sid, qid).
	var found bool
	for _, r := range FlightRecords() {
		if r.SID != alice.SID() {
			continue
		}
		found = true
		if r.QID != admitQID {
			t.Errorf("flight record qid %d, admission minted %d", r.QID, admitQID)
		}
		if r.Party != "Alice" {
			t.Errorf("record for Alice's session names party %s", r.Party)
		}
		if r.PlanDigest == "" || r.Steps == 0 || r.Bytes == 0 {
			t.Errorf("flight record incomplete: %+v", r)
		}
	}
	if !found {
		t.Errorf("no flight record carries Alice's session ID %d: %+v", alice.SID(), FlightRecords())
	}
}
