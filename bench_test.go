package secyan

// This file regenerates the paper's evaluation (Figures 2-6, §8.3) as Go
// benchmarks: one benchmark per figure, each producing the running-time
// and communication series for the three methods (non-private, secure
// Yannakakis, garbled-circuit baseline), plus ablation benchmarks for
// the design choices called out in DESIGN.md.
//
// Default scales are laptop-friendly; use cmd/secyan-bench to run larger
// scales or the full 25-nation Q9 (the paper's experiments ran hours on
// a Xeon server).

import (
	"context"
	"fmt"
	"os"
	"testing"

	"secyan/internal/benchmark"
	"secyan/internal/core"
	"secyan/internal/gcbaseline"
	"secyan/internal/mpc"
	"secyan/internal/oep"
	"secyan/internal/ot"
	"secyan/internal/psi"
	"secyan/internal/queries"
	"secyan/internal/relation"
	"secyan/internal/share"
	"secyan/internal/tpch"
	"secyan/internal/transport"
)

// benchOptions returns the default figure options for in-tree benchmarks.
func benchOptions() benchmark.Options {
	opt := benchmark.DefaultOptions()
	opt.ScalesMB = []float64{0.02, 0.06, 0.12}
	opt.SecureCapMB = 0.12
	return opt
}

// runFigure executes one figure benchmark and reports headline metrics.
func runFigure(b *testing.B, spec queries.Spec) {
	b.Helper()
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		points, err := benchmark.RunFigure(spec, opt, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			if testing.Verbose() {
				benchmark.PrintFigure(os.Stdout, spec, points)
			}
			for _, p := range points {
				if p.Method == benchmark.MethodSecure && !p.Extrapolated {
					b.ReportMetric(p.Seconds, fmt.Sprintf("sec_secure_%gMB", p.ScaleMB))
					b.ReportMetric(p.Bytes/1e6, fmt.Sprintf("MB_comm_%gMB", p.ScaleMB))
				}
			}
		}
	}
}

// BenchmarkFigure2_Q3 regenerates Figure 2 (TPC-H Q3).
func BenchmarkFigure2_Q3(b *testing.B) { runFigure(b, queries.Q3()) }

// BenchmarkFigure3_Q10 regenerates Figure 3 (TPC-H Q10).
func BenchmarkFigure3_Q10(b *testing.B) { runFigure(b, queries.Q10()) }

// BenchmarkFigure4_Q18 regenerates Figure 4 (TPC-H Q18).
func BenchmarkFigure4_Q18(b *testing.B) { runFigure(b, queries.Q18()) }

// BenchmarkFigure5_Q8 regenerates Figure 5 (TPC-H Q8).
func BenchmarkFigure5_Q8(b *testing.B) { runFigure(b, queries.Q8()) }

// BenchmarkFigure6_Q9 regenerates Figure 6 (TPC-H Q9) with a 2-nation
// decomposition; cmd/secyan-bench -q9nations 25 runs the paper's full
// query.
func BenchmarkFigure6_Q9(b *testing.B) { runFigure(b, queries.Q9(2)) }

// BenchmarkGCBaselineQ3Real runs the monolithic garbled circuit for real
// on a tiny chain-join instance (the §8.2 comparison point: the paper's
// version took 2.8 hours on 7,655 tuples; everything beyond is
// extrapolated from the per-gate constants this benchmark measures).
func BenchmarkGCBaselineQ3Real(b *testing.B) {
	for i := 0; i < b.N; i++ {
		alice, bob := benchPair()
		cal, _, err := mpc.Run2PC(alice, bob,
			func(p *mpc.Party) (gcbaseline.Calibration, error) { return gcbaseline.Calibrate(p) },
			func(p *mpc.Party) (gcbaseline.Calibration, error) { return gcbaseline.Calibrate(p) },
		)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(1/cal.SecondsPerGate, "gates/sec")
		b.ReportMetric(cal.BytesPerGate, "bytes/gate")
		alice.Conn.Close()
		bob.Conn.Close()
	}
}

// --- Ablations -------------------------------------------------------

// benchPair builds fresh connected parties.
func benchPair() (*mpc.Party, *mpc.Party) {
	return mpc.Pair(share.Ring{Bits: 32})
}

// BenchmarkAblationSamePartySemijoin compares the §6.5 same-party
// semijoin fast path (one OEP, no PSI) against the general cross-party
// protocol (PSI with secret-shared payloads + OEP) on identical data.
func BenchmarkAblationSamePartySemijoin(b *testing.B) {
	const n = 128
	mkRels := func() (*relation.Relation, *relation.Relation) {
		parent := relation.New(relation.MustSchema("a", "k"))
		child := relation.New(relation.MustSchema("k"))
		for i := 0; i < n; i++ {
			parent.Append([]uint64{uint64(i), uint64(i % 50)}, 1)
		}
		for i := 0; i < 50; i++ {
			child.Append([]uint64{uint64(i)}, uint64(i))
		}
		return parent, child
	}
	run := func(b *testing.B, childOwner mpc.Role) {
		parent, child := mkRels()
		for i := 0; i < b.N; i++ {
			alice, bob := benchPair()
			setup := func(p *mpc.Party) (*core.SharedRelation, error) {
				var rel *relation.Relation
				if p.Role == mpc.Alice {
					rel = parent
				}
				return core.ShareInput(p, mpc.Alice, rel, parent.Schema, parent.Len())
			}
			setupChild := func(p *mpc.Party) (*core.SharedRelation, error) {
				var rel *relation.Relation
				if p.Role == childOwner {
					rel = child
				}
				return core.ShareInput(p, childOwner, rel, child.Schema, child.Len())
			}
			do := func(p *mpc.Party) (any, error) {
				ps, err := setup(p)
				if err != nil {
					return nil, err
				}
				cs, err := setupChild(p)
				if err != nil {
					return nil, err
				}
				var dg relation.DummyGen
				return core.SemijoinInto(p, &dg, ps, cs)
			}
			if _, _, err := mpc.Run2PC(alice, bob, do, do); err != nil {
				b.Fatal(err)
			}
			st := alice.Conn.Stats()
			b.ReportMetric(float64(st.TotalBytes())/1e6, "MB_comm")
			alice.Conn.Close()
			bob.Conn.Close()
		}
	}
	b.Run("same-party", func(b *testing.B) { run(b, mpc.Alice) })
	b.Run("cross-party", func(b *testing.B) { run(b, mpc.Bob) })
}

// BenchmarkAblationSharedPayloadPSI isolates the extra cost of §5.5
// (secret-shared payloads: two extra OEPs and the index circuit) over the
// plain-payload PSI.
func BenchmarkAblationSharedPayloadPSI(b *testing.B) {
	const m, n = 128, 128
	xs := make([]uint64, m)
	ys := make([]uint64, n)
	pays := make([]uint64, n)
	for i := range xs {
		xs[i] = uint64(i)
	}
	for i := range ys {
		ys[i] = uint64(i * 2)
		pays[i] = uint64(i)
	}
	b.Run("plain-payload", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			alice, bob := benchPair()
			_, _, err := mpc.Run2PC(alice, bob,
				func(p *mpc.Party) (*psi.Result, error) { return psi.RunReceiver(p, xs, n) },
				func(p *mpc.Party) (*psi.Result, error) { return psi.RunSender(p, ys, pays, m) },
			)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(alice.Conn.Stats().TotalBytes())/1e6, "MB_comm")
			alice.Conn.Close()
			bob.Conn.Close()
		}
	})
	b.Run("shared-payload", func(b *testing.B) {
		zeros := make([]uint64, n)
		for i := 0; i < b.N; i++ {
			alice, bob := benchPair()
			_, _, err := mpc.Run2PC(alice, bob,
				func(p *mpc.Party) (*psi.Result, error) { return psi.RunSharedPayloadReceiver(p, xs, n, zeros) },
				func(p *mpc.Party) (*psi.Result, error) { return psi.RunSharedPayloadSender(p, ys, pays, m) },
			)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(alice.Conn.Stats().TotalBytes())/1e6, "MB_comm")
			alice.Conn.Close()
			bob.Conn.Close()
		}
	})
}

// BenchmarkAblationOEPPermuteVsExtended compares the bijection-only OEP
// (single Beneš network) against the full extended permutation (two
// networks plus a duplication stage) at equal width.
func BenchmarkAblationOEPPermuteVsExtended(b *testing.B) {
	const n = 1024
	xi := make([]int, n)
	shares := make([]uint64, n)
	for i := range xi {
		xi[i] = (i * 7) % n
	}
	b.Run("permute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			alice, bob := benchPair()
			_, _, err := mpc.Run2PC(alice, bob,
				func(p *mpc.Party) ([]uint64, error) { return oep.RunPermuteProgrammer(p, xi, shares) },
				func(p *mpc.Party) ([]uint64, error) { return oep.RunPermuteHelper(p, n, shares) },
			)
			if err != nil {
				b.Fatal(err)
			}
			alice.Conn.Close()
			bob.Conn.Close()
		}
	})
	b.Run("extended", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			alice, bob := benchPair()
			_, _, err := mpc.Run2PC(alice, bob,
				func(p *mpc.Party) ([]uint64, error) { return oep.RunProgrammer(p, xi, n, shares) },
				func(p *mpc.Party) ([]uint64, error) { return oep.RunHelper(p, n, n, shares) },
			)
			if err != nil {
				b.Fatal(err)
			}
			alice.Conn.Close()
			bob.Conn.Close()
		}
	})
}

// BenchmarkAblationOTExtension compares IKNP-extended OTs against raw
// elliptic-curve base OTs for a batch of 256 transfers, demonstrating
// why the extension matters (the base OT costs three P-256 scalar
// multiplications per transfer).
func BenchmarkAblationOTExtension(b *testing.B) {
	const batch = 256
	pairs := make([][2][]byte, batch)
	choices := make([]bool, batch)
	for i := range pairs {
		pairs[i] = [2][]byte{make([]byte, 16), make([]byte, 16)}
		choices[i] = i%2 == 0
	}
	b.Run("iknp-extension", func(b *testing.B) {
		ca, cb := transport.Pair()
		defer ca.Close()
		defer cb.Close()
		sch := make(chan *ot.Sender, 1)
		go func() {
			s, err := ot.NewSender(ca)
			if err != nil {
				b.Error(err)
			}
			sch <- s
		}()
		r, err := ot.NewReceiver(cb)
		if err != nil {
			b.Fatal(err)
		}
		s := <-sch
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			done := make(chan error, 1)
			go func() { done <- s.Send(pairs) }()
			if _, err := r.Receive(choices, 16); err != nil {
				b.Fatal(err)
			}
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("base-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ca, cb := transport.Pair()
			done := make(chan error, 1)
			go func() { _, err := ot.BaseSend(ca, batch); done <- err }()
			if _, err := ot.BaseRecv(cb, choices); err != nil {
				b.Fatal(err)
			}
			if err := <-done; err != nil {
				b.Fatal(err)
			}
			ca.Close()
			cb.Close()
		}
	})
}

// BenchmarkSecureAggregate measures the oblivious projection-aggregation
// operator in isolation (sort + OEP + merge-gate chain, §6.1).
func BenchmarkSecureAggregate(b *testing.B) {
	const n = 512
	rel := relation.New(relation.MustSchema("g"))
	for i := 0; i < n; i++ {
		rel.Append([]uint64{uint64(i % 40)}, uint64(i))
	}
	for i := 0; i < b.N; i++ {
		alice, bob := benchPair()
		do := func(p *mpc.Party) (any, error) {
			var r *relation.Relation
			if p.Role == mpc.Bob {
				r = rel
			}
			sr, err := core.ShareInput(p, mpc.Bob, r, rel.Schema, rel.Len())
			if err != nil {
				return nil, err
			}
			var dg relation.DummyGen
			return core.Aggregate(p, &dg, sr, []relation.Attr{"g"})
		}
		if _, _, err := mpc.Run2PC(alice, bob, do, do); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(alice.Conn.Stats().TotalBytes())/1e6, "MB_comm")
		alice.Conn.Close()
		bob.Conn.Close()
	}
}

// BenchmarkTPCHGeneration tracks the data generator itself.
func BenchmarkTPCHGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		db := tpch.Generate(tpch.Config{ScaleMB: 1, Seed: int64(i)})
		if db.TotalRows() == 0 {
			b.Fatal("empty database")
		}
	}
}

// BenchmarkAblationLocalOpt measures the §6.5 plaintext-annotation fast
// paths (free local aggregation + plain-payload indexed PSI) against the
// fully general protocol on Example 1.1-shaped data.
func BenchmarkAblationLocalOpt(b *testing.B) {
	mkQuery := func(noOpt bool) (*core.Query, *core.Query) {
		r1 := relation.New(relation.MustSchema("person", "coinsurance"))
		r2 := relation.New(relation.MustSchema("person", "disease"))
		r3 := relation.New(relation.MustSchema("disease", "class"))
		for i := 0; i < 200; i++ {
			r1.Append([]uint64{uint64(i), uint64(i % 90)}, uint64(100-i%90))
			r2.Append([]uint64{uint64(i % 210), uint64(i % 25)}, uint64(10+i))
		}
		for d := 0; d < 25; d++ {
			r3.Append([]uint64{uint64(d), uint64(d % 4)}, 1)
		}
		base := core.Query{
			Inputs: []core.Input{
				{Name: "r1", Owner: mpc.Alice, Schema: r1.Schema, N: r1.Len()},
				{Name: "r2", Owner: mpc.Bob, Schema: r2.Schema, N: r2.Len()},
				{Name: "r3", Owner: mpc.Alice, Schema: r3.Schema, N: r3.Len()},
			},
			Output:               []relation.Attr{"class"},
			NoLocalOptimizations: noOpt,
		}
		qa := base
		qa.Inputs = append([]core.Input(nil), base.Inputs...)
		qa.Inputs[0].Rel = r1
		qa.Inputs[2].Rel = r3
		qb := base
		qb.Inputs = append([]core.Input(nil), base.Inputs...)
		qb.Inputs[1].Rel = r2
		return &qa, &qb
	}
	for _, mode := range []struct {
		name  string
		noOpt bool
	}{{"optimized", false}, {"general", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				qa, qb := mkQuery(mode.noOpt)
				alice, bob := benchPair()
				_, _, err := mpc.Run2PC(alice, bob,
					func(p *mpc.Party) (*relation.Relation, error) {
						rel, _, err := core.Run(context.Background(), p, qa, core.Options{})
						return rel, err
					},
					func(p *mpc.Party) (*relation.Relation, error) {
						rel, _, err := core.Run(context.Background(), p, qb, core.Options{})
						return rel, err
					},
				)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(alice.Conn.Stats().TotalBytes())/1e6, "MB_comm")
				alice.Conn.Close()
				bob.Conn.Close()
			}
		})
	}
}

// BenchmarkOperatorScaling measures the oblivious aggregation and the
// cross-party semijoin at increasing sizes, demonstrating the linear
// growth the paper proves (§6.1-§6.2).
func BenchmarkOperatorScaling(b *testing.B) {
	for _, n := range []int{64, 128, 256, 512} {
		n := n
		b.Run(fmt.Sprintf("aggregate-%d", n), func(b *testing.B) {
			rel := relation.New(relation.MustSchema("g"))
			for i := 0; i < n; i++ {
				rel.Append([]uint64{uint64(i % 16)}, uint64(i))
			}
			for i := 0; i < b.N; i++ {
				alice, bob := benchPair()
				do := func(p *mpc.Party) (any, error) {
					var r *relation.Relation
					if p.Role == mpc.Bob {
						r = rel
					}
					sr, err := core.ShareInput(p, mpc.Bob, r, rel.Schema, rel.Len())
					if err != nil {
						return nil, err
					}
					var dg relation.DummyGen
					return core.Aggregate(p, &dg, sr, []relation.Attr{"g"})
				}
				if _, _, err := mpc.Run2PC(alice, bob, do, do); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(alice.Conn.Stats().TotalBytes())/1e6, "MB_comm")
				alice.Conn.Close()
				bob.Conn.Close()
			}
		})
		b.Run(fmt.Sprintf("semijoin-%d", n), func(b *testing.B) {
			parent := relation.New(relation.MustSchema("a", "k"))
			child := relation.New(relation.MustSchema("k"))
			for i := 0; i < n; i++ {
				parent.Append([]uint64{uint64(i), uint64(i % 32)}, 1)
			}
			for i := 0; i < 32; i++ {
				child.Append([]uint64{uint64(i)}, uint64(i))
			}
			for i := 0; i < b.N; i++ {
				alice, bob := benchPair()
				do := func(p *mpc.Party) (any, error) {
					var pr, cr *relation.Relation
					if p.Role == mpc.Alice {
						pr = parent
					} else {
						cr = child
					}
					ps, err := core.ShareInput(p, mpc.Alice, pr, parent.Schema, parent.Len())
					if err != nil {
						return nil, err
					}
					cs, err := core.ShareInput(p, mpc.Bob, cr, child.Schema, child.Len())
					if err != nil {
						return nil, err
					}
					var dg relation.DummyGen
					return core.SemijoinInto(p, &dg, ps, cs)
				}
				if _, _, err := mpc.Run2PC(alice, bob, do, do); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(alice.Conn.Stats().TotalBytes())/1e6, "MB_comm")
				alice.Conn.Close()
				bob.Conn.Close()
			}
		})
	}
}
