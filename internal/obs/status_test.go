package obs

import (
	"sync"
	"testing"
)

// TestStatusConcurrent exercises the live step-status map from many
// goroutines at once; it exists to run under -race (make race-obs).
func TestStatusConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			qid := uint64(g + 1)
			for i := 0; i < 300; i++ {
				SetCurrentStep(StepStatus{QID: qid, Phase: "join", Op: "psi", Step: i})
				if i%25 == 0 {
					CurrentSteps()
				}
				ClearCurrentStep(qid)
			}
		}(g)
	}
	// A concurrent reader mimicking /debug/step scrapes.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			CurrentSteps()
		}
	}()
	wg.Wait()
	<-done
	if got := CurrentSteps(); len(got) != 0 {
		t.Errorf("CurrentSteps after all clears = %+v, want empty", got)
	}
}

func TestStatusSorted(t *testing.T) {
	SetCurrentStep(StepStatus{QID: 9, Party: "Alice"})
	SetCurrentStep(StepStatus{QID: 4, Party: "Alice"})
	defer ClearCurrentStep(4)
	defer ClearCurrentStep(9)
	got := CurrentSteps()
	if len(got) != 2 || got[0].QID != 4 || got[1].QID != 9 {
		t.Errorf("CurrentSteps not sorted by query ID: %+v", got)
	}
}
