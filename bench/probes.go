package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"time"
)

// The layer probes of the traced run: each times calls into one
// package's public entry points, standalone over an in-memory pipe (or
// loopback, for the transport), at n = the workload's largest input
// cardinality rounded up to a power of two. Every probe checks its own
// output and reports the median of up to probeReps calls; a probe whose
// calls have already taken probeBudget is not repeated (PSI at n = 1024
// takes seconds a call). Every call is a span.

const (
	probeReps   = 3
	probeBudget = time.Second
	warmN       = 4 // size of the untimed runs that only establish OT sessions
)

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// timed runs f as one span of the given layer and returns its seconds.
func (r *run) timed(layer, name string, f func() error) (float64, error) {
	t0 := time.Now()
	err := f()
	t1 := time.Now()
	r.tr.add(span{Parent: r.root, Kind: "probe", Layer: layer, Name: name}, t0, t1)
	return t1.Sub(t0).Seconds(), err
}

// medianOf times f up to probeReps times and returns the median and the
// number of calls; prepare, when set, runs before each call off the clock.
func (r *run) medianOf(layer, name string, prepare, f func() error) (float64, int, error) {
	var secs []float64
	var total float64
	for i := 0; i < probeReps && total < probeBudget.Seconds(); i++ {
		if prepare != nil {
			if err := prepare(); err != nil {
				return 0, 0, err
			}
		}
		s, err := r.timed(layer, name, f)
		if err != nil {
			return 0, 0, err
		}
		secs = append(secs, s)
		total += s
	}
	return median(secs), len(secs), nil
}

// both runs the two halves of a two-party call; a half that fails closes
// its end so the other cannot wait for ever.
func both(ca, cb conn, fa, fb func() error) error {
	ch := make(chan error, 1)
	go func() {
		err := fb()
		if err != nil {
			cb.Close()
		}
		ch <- err
	}()
	errA := fa()
	if errA != nil {
		ca.Close()
	}
	return errors.Join(errA, <-ch)
}

// probePlanner times the first and the second core.ExplainOpts of this
// process for one role: the first fills the process-wide cost cache.
func (r *run) probePlanner(shape *queryShape) (*queryPlan, error) {
	var plan *queryPlan
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cold, err := r.timed("core", "ExplainOpts cold", func() (err error) { plan, err = explainPlan(shape); return })
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	warm, err := r.timed("core", "ExplainOpts warm", func() (err error) { _, err = explainPlan(shape); return })
	if err != nil {
		return nil, err
	}
	r.metrics.set("core.plan_cold_s", cold)
	r.metrics.set("core.plan_cold_alloc_bytes", float64(ms1.TotalAlloc-ms0.TotalAlloc))
	r.metrics.set("core.plan_warm_s", warm)
	r.metrics.set("core.plan_steps", float64(len(plan.Steps)))
	return plan, nil
}

// probeLayers runs every kernel and transport probe; a probe that fails
// is recorded as a failed operation and its metrics stay 0.
func (r *run) probeLayers(maxN int) {
	n := ceilPow2(maxN)
	small := r.cfg.probeCap > 0
	if small {
		n = min(n, r.cfg.probeCap)
	}
	r.counts["probe_n"] = float64(n)
	for _, p := range []struct {
		name string
		f    func() error
	}{
		{"ot+gc", func() error { return r.probeOTandGC(n) }},
		{"psi", func() error { return r.probePSI(n) }},
		{"oep", func() error { return r.probeOEP(n) }},
		{"prf+bitutil", func() error { return r.probeLocalKernels(n, small) }},
		{"transport", func() error { return r.probeTransport(small) }},
	} {
		r.record("probe "+p.name, p.f())
	}
}

// ---- ot, gc ----------------------------------------------------------

func (r *run) probeOTandGC(n int) error {
	g := seedPRG(uint64(n))

	// Base OTs: one NewSender/NewReceiver pair per fresh pipe.
	var ca, cb conn
	var snd *otSender
	var rcv *otReceiver
	base, _, err := r.medianOf("ot", "NewSender+NewReceiver",
		func() error {
			if ca != nil {
				ca.Close()
				cb.Close()
			}
			ca, cb = pipePair()
			return nil
		},
		func() error {
			return both(ca, cb,
				func() (err error) { snd, err = otNewSender(ca); return },
				func() (err error) { rcv, err = otNewReceiver(cb); return })
		})
	if err != nil {
		return err
	}
	r.metrics.set("ot.base_s", base)

	// Extension: m OTs of 16-byte messages, direct, then pooled.
	m := 64 * n
	pairs := make([][2][]byte, m)
	choices := make([]bool, m)
	for j := range pairs {
		pairs[j] = [2][]byte{g.Bytes(16), g.Bytes(16)}
		choices[j] = g.Bool()
	}
	var got [][]byte
	extend := func() error {
		return both(ca, cb,
			func() error { return snd.Send(pairs) },
			func() (err error) { got, err = rcv.Receive(choices, 16); return })
	}
	checkOT := func() error {
		for j := range got {
			want := pairs[j][0]
			if choices[j] {
				want = pairs[j][1]
			}
			if !bytes.Equal(got[j], want) {
				return fmt.Errorf("OT %d delivered the wrong message", j)
			}
		}
		return nil
	}
	bytes0 := ca.Stats().TotalBytes()
	ext, reps, err := r.medianOf("ot", "Send+Receive direct", nil, extend)
	if err != nil {
		return err
	}
	if err := checkOT(); err != nil {
		return err
	}
	r.metrics.set("ot.ext_ots_per_s", float64(m)/ext)
	r.metrics.set("ot.ext_bytes_per_ot", float64(ca.Stats().TotalBytes()-bytes0)/float64(reps*m))

	fill := func() error {
		return both(ca, cb,
			func() error { return snd.FillRandom(m, 16) },
			func() error { return rcv.FillRandom(m, 16) })
	}
	filled, _, err := r.medianOf("ot", "FillRandom", nil, fill)
	if err != nil {
		return err
	}
	r.metrics.set("ot.fill_ots_per_s", float64(m)/filled)
	snd.Pool().Clear()
	rcv.Pool().Clear()
	// One batch is filled off the clock before each pooled send drains it.
	pooled, _, err := r.medianOf("ot", "Send+Receive pooled", fill, extend)
	if err != nil {
		return err
	}
	if err := checkOT(); err != nil {
		return err
	}
	if snd.Pool().Len() != 0 || rcv.Pool().Len() != 0 {
		return fmt.Errorf("pooled sends left %d batches in the pool", snd.Pool().Len())
	}
	r.metrics.set("ot.pooled_ots_per_s", float64(m)/pooled)

	// Garbled circuits: n slots of a 32-bit compare, select and add —
	// the shape of the merge gates the reduce phase runs.
	var c *gcCircuit
	build, _, err := r.medianOf("gc", "Build+Prepare", nil, func() error {
		b := gcNewBuilder()
		for i := 0; i < n; i++ {
			x, y := b.GarblerInputWord(32), b.EvalInputWord(32)
			b.OutputWordToEval(b.Add(b.MuxWord(b.GreaterThan(x, y), x, y), y))
		}
		c = b.Build()
		c.Prepare()
		return nil
	})
	if err != nil {
		return err
	}
	gates := float64(len(c.Gates))
	r.metrics.set("gc.build_gates_per_s", gates/build)
	r.metrics.set("gc.table_bytes_per_and", 16*float64(c.TableBlocks())/float64(c.NumAnd+c.NumAndG))

	gIn, eIn := make([]bool, len(c.GarblerInputs)), make([]bool, len(c.EvalInputs))
	for i := range gIn {
		gIn[i] = g.Bool()
	}
	for i := range eIn {
		eIn[i] = g.Bool()
	}
	want, _, err := c.EvalPlain(gIn, eIn, nil)
	if err != nil {
		return err
	}
	var out []bool
	checkGC := func() error {
		if len(out) != len(want) {
			return fmt.Errorf("circuit returned %d bits, want %d", len(out), len(want))
		}
		for i := range out {
			if out[i] != want[i] {
				return fmt.Errorf("circuit output bit %d is wrong", i)
			}
		}
		return nil
	}

	var pg *gcPreGarbled
	garble, _, err := r.medianOf("gc", "GarbleAhead", nil, func() error { pg = gcGarbleAhead(c); return nil })
	if err != nil {
		return err
	}
	r.metrics.set("gc.garble_gates_per_s", gates/garble)

	direct, _, err := r.medianOf("gc", "RunGarbler+RunEvaluator", nil, func() error {
		return both(ca, cb,
			func() error { _, err := gcRunGarbler(ca, snd, c, gIn, nil); return err },
			func() (err error) { out, err = gcRunEvaluator(cb, rcv, c, eIn); return })
	})
	if err != nil {
		return err
	}
	if err := checkGC(); err != nil {
		return err
	}
	r.metrics.set("gc.run_gates_per_s", gates/direct)

	// Pre-garbled material is single-use: garble afresh off the clock.
	online, _, err := r.medianOf("gc", "RunOnline+RunEvaluator",
		func() error { pg = gcGarbleAhead(c); return nil },
		func() error {
			return both(ca, cb,
				func() error { _, err := pg.RunOnline(ca, snd, gIn, nil); return err },
				func() (err error) { out, err = gcRunEvaluator(cb, rcv, c, eIn); return })
		})
	if err != nil {
		return err
	}
	if err := checkGC(); err != nil {
		return err
	}
	r.metrics.set("gc.online_gates_per_s", gates/online)
	ca.Close()
	cb.Close()
	return nil
}

// ---- psi, cuckoo -----------------------------------------------------

func (r *run) probePSI(n int) error {
	g := seedPRG(uint64(n) + 1)
	// Alice holds 1..n, Bob holds n/2+1..n/2+n: half of each set matches.
	xs, ys, pay := make([]uint64, n), make([]uint64, n), make([]uint64, n)
	for i := range xs {
		xs[i] = uint64(i + 1)
		ys[i] = uint64(n/2 + i + 1)
		pay[i] = g.Uint64n(1 << 20)
	}
	wantHits := n - n/2

	pa, pb := newPair()
	defer pa.Conn.Close()
	defer pb.Conn.Close()
	var ra, rb []uint64 // indicator shares per receiver bin
	plainPSI := func() error {
		return both(pa.Conn, pb.Conn,
			func() error {
				res, err := psiRunReceiver(pa, xs, n)
				if err == nil {
					ra = res.IndShares
				}
				return err
			},
			func() error {
				res, err := psiRunSender(pb, ys, pay, n)
				if err == nil {
					rb = res.IndShares
				}
				return err
			})
	}
	checkPSI := func() error {
		hits := uint64(0)
		for i := range ra {
			hits += (ra[i] + rb[i]) & (1<<ringBits - 1)
		}
		if hits != uint64(wantHits) {
			return fmt.Errorf("PSI found %d matches, want %d", hits, wantHits)
		}
		return nil
	}
	// A small first run sets up the pair's OT sessions off the clock.
	full := [3][]uint64{xs, ys, pay}
	w := min(warmN, n)
	xs, ys, pay, n = xs[:w], ys[:w], pay[:w], w
	if err := plainPSI(); err != nil {
		return err
	}
	xs, ys, pay, n = full[0], full[1], full[2], len(full[0])
	bytes0 := pa.Conn.Stats().TotalBytes()
	secs, reps, err := r.medianOf("psi", "RunSender+RunReceiver", nil, plainPSI)
	if err != nil {
		return err
	}
	if err := checkPSI(); err != nil {
		return err
	}
	r.metrics.set("psi.elems_per_s", float64(n)/secs)
	r.metrics.set("psi.bytes_per_elem", float64(pa.Conn.Stats().TotalBytes()-bytes0)/float64(reps*n))

	sa, sb := ring.SplitSlice(g, pay)
	shared, _, err := r.medianOf("psi", "RunSharedPayloadSender+Receiver", nil, func() error {
		return both(pa.Conn, pb.Conn,
			func() error {
				res, err := psiRunSharedReceiver(pa, xs, n, sa)
				if err == nil {
					ra = res.IndShares
				}
				return err
			},
			func() error {
				res, err := psiRunSharedSender(pb, ys, sb, n)
				if err == nil {
					rb = res.IndShares
				}
				return err
			})
	})
	if err != nil {
		return err
	}
	if err := checkPSI(); err != nil {
		return err
	}
	r.metrics.set("psi.shared_elems_per_s", float64(n)/shared)

	cuckooS, _, err := r.medianOf("cuckoo", "Build", nil, func() error { _, err := cuckooBuild(g, xs); return err })
	if err != nil {
		return err
	}
	r.metrics.set("cuckoo.build_items_per_s", float64(n)/cuckooS)
	return nil
}

// ---- oep, permnet ----------------------------------------------------

func (r *run) probeOEP(n int) error {
	g := seedPRG(uint64(n) + 2)
	xi, vals := make([]int, n), make([]uint64, n)
	for i := range xi {
		xi[i] = int(g.Uint64n(uint64(n)))
		vals[i] = g.Uint64n(1 << 20)
	}
	sa, sb := ring.SplitSlice(g, vals)

	pa, pb := newPair()
	defer pa.Conn.Close()
	defer pb.Conn.Close()
	var oa, ob []uint64
	permute := func() error {
		return both(pa.Conn, pb.Conn,
			func() (err error) { oa, err = oepRunProgrammer(pa, xi, n, sa); return },
			func() (err error) { ob, err = oepRunHelper(pb, n, n, sb); return })
	}
	// A small first run sets up the pair's OT sessions off the clock.
	full := [2][]uint64{sa, sb}
	fullXi := xi
	w := min(warmN, n)
	xi, sa, sb, n = make([]int, w), sa[:w], sb[:w], w
	if err := permute(); err != nil {
		return err
	}
	xi, sa, sb, n = fullXi, full[0], full[1], len(fullXi)
	bytes0 := pa.Conn.Stats().TotalBytes()
	secs, reps, err := r.medianOf("oep", "RunProgrammer+RunHelper", nil, permute)
	if err != nil {
		return err
	}
	for i := range xi {
		if ring.Add(oa[i], ob[i]) != vals[xi[i]] {
			return fmt.Errorf("OEP output %d is wrong", i)
		}
	}
	r.metrics.set("oep.elems_per_s", float64(n)/secs)
	r.metrics.set("oep.bytes_per_elem", float64(pa.Conn.Stats().TotalBytes()-bytes0)/float64(reps*n))

	net := permnetNewExtended(n, n)
	route, _, err := r.medianOf("permnet", "Extended.Route", nil, func() error { _, err := net.Route(xi); return err })
	if err != nil {
		return err
	}
	r.metrics.set("permnet.route_elems_per_s", float64(n)/route)
	return nil
}

// ---- prf, bitutil ----------------------------------------------------

func (r *run) probeLocalKernels(n int, small bool) error {
	blocks := 1 << 20
	if small {
		blocks = 1 << 10
	}
	g := seedPRG(uint64(n) + 3)
	src, dst := make([]prfBlock, blocks), make([]prfBlock, blocks)
	for i := range src {
		g.Read(src[i][:])
	}
	hash, _, err := r.medianOf("prf", "HashBlocks", nil, func() error { prfHashBlocks(dst, src, 0, 1); return nil })
	if err != nil {
		return err
	}
	r.metrics.set("prf.hash_blocks_per_s", float64(blocks)/hash)

	cols := 64 * n
	mat := bitutilNewMatrix(128, cols)
	for row := 0; row < 128; row++ {
		mat.SetRowBytes(row, g.Bytes(cols/8))
	}
	transpose, _, err := r.medianOf("bitutil", "Transpose", nil, func() error {
		if t := mat.Transpose(); t.Get(1, 0) != mat.Get(0, 1) {
			return fmt.Errorf("transpose misplaced a bit")
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.metrics.set("bitutil.transpose_bits_per_s", 128*float64(cols)/transpose)
	return nil
}

// ---- transport, mpc --------------------------------------------------

func (r *run) probeTransport(small bool) error {
	chunks, pings, opens := 64, 10000, 100
	if small {
		chunks, pings, opens = 4, 100, 10
	}
	payload := make([]byte, 1<<20)

	// stream pushes chunks × 1 MiB one way and waits for a one-byte
	// acknowledgement; rtt plays 16-byte ping-pong.
	stream := func(ca, cb conn) func() error {
		return func() error {
			return both(ca, cb,
				func() error {
					for i := 0; i < chunks; i++ {
						if err := ca.Send(payload); err != nil {
							return err
						}
					}
					_, err := ca.Recv()
					return err
				},
				func() error {
					for i := 0; i < chunks; i++ {
						if msg, err := cb.Recv(); err != nil {
							return err
						} else if len(msg) != len(payload) {
							return fmt.Errorf("received %d bytes, want %d", len(msg), len(payload))
						}
					}
					return cb.Send([]byte{1})
				})
		}
	}
	rtt := func(ca, cb conn) func() error {
		ping := make([]byte, 16)
		return func() error {
			return both(ca, cb,
				func() error {
					for i := 0; i < pings; i++ {
						if err := ca.Send(ping); err != nil {
							return err
						}
						if _, err := ca.Recv(); err != nil {
							return err
						}
					}
					return nil
				},
				func() error {
					for i := 0; i < pings; i++ {
						msg, err := cb.Recv()
						if err != nil {
							return err
						}
						if err := cb.Send(msg); err != nil {
							return err
						}
					}
					return nil
				})
		}
	}
	measure := func(kind string, ca, cb conn) error {
		s, _, err := r.medianOf("transport", kind+" stream", nil, stream(ca, cb))
		if err != nil {
			return err
		}
		r.metrics.set("transport."+kind+"_MBps", float64(chunks)*float64(len(payload))/1e6/s)
		s, _, err = r.medianOf("transport", kind+" ping-pong", nil, rtt(ca, cb))
		if err != nil {
			return err
		}
		r.metrics.set("transport."+kind+"_rtt_us", s/float64(pings)*1e6)
		return nil
	}

	pa, pb := pipePair()
	defer pa.Close()
	defer pb.Close()
	if err := measure("pipe", pa, pb); err != nil {
		return err
	}

	ta, tb, err := loopbackPair()
	if err != nil {
		return err
	}
	defer ta.Close()
	defer tb.Close()
	if err := measure("tcp", ta, tb); err != nil {
		return err
	}

	ma, mb, err := loopbackPair()
	if err != nil {
		return err
	}
	xa, xb := newMux(ma), newMux(mb)
	defer xa.Close()
	defer xb.Close()
	sa, err := xa.Open(1)
	if err != nil {
		return err
	}
	sb, err := xb.Open(1)
	if err != nil {
		return err
	}
	if err := measure("mux", sa, sb); err != nil {
		return err
	}
	overhead, sent := muxOverhead(xa.SessionStats())
	r.metrics.set("transport.mux_overhead_frac", float64(overhead)/float64(sent))

	// Stream open: NextParty on both ends of one loopback session.
	e, err := connect(true)
	if err != nil {
		return err
	}
	defer e.close()
	var secs []float64
	for i := 0; i < opens; i++ {
		var a, b *party
		s, err := r.timed("mpc", "NextParty both ends", func() (err error) { a, b, err = e.parties(); return })
		if err != nil {
			return err
		}
		a.Conn.Close()
		b.Conn.Close()
		secs = append(secs, s)
	}
	r.metrics.set("mpc.stream_open_us", median(secs)*1e6)
	return nil
}
