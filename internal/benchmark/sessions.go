package benchmark

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"secyan/internal/core"
	"secyan/internal/mpc"
	"secyan/internal/queries"
	"secyan/internal/tpch"
	"secyan/internal/transport"
)

// SessionsPoint is the result of one concurrent-session throughput
// measurement: n identical queries executed back to back over one
// loopback TCP connection versus the same n queries interleaved on n
// streams of one multiplexed session over an identical connection.
type SessionsPoint struct {
	Query      string
	ScaleMB    float64
	N          int
	SerialSec  float64
	ConcSec    float64
	Speedup    float64 // SerialSec / ConcSec
	SerialQPS  float64
	ConcQPS    float64
	ConcStats  transport.SessionStats
	StreamUtil float64 // payload bytes / (payload + session overhead)
}

// loopbackPair opens a real TCP connection to ourselves and returns its
// two ends as message transports.
func loopbackPair() (a, b transport.Conn, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	acc := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		acc <- res{c, err}
	}()
	dialed, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	r := <-acc
	if r.err != nil {
		dialed.Close()
		return nil, nil, r.err
	}
	return transport.NewConn(r.c), transport.NewConn(dialed), nil
}

// RunSessions measures session-layer throughput for spec at the first
// configured scale: a serial baseline (n runs, one at a time, each on
// its own stream of a session) against n runs interleaved concurrently
// on n streams. Both modes share one TCP connection per endpoint pair,
// so the comparison isolates the multiplexing itself.
func RunSessions(spec queries.Spec, n int, opt Options, w io.Writer) (*SessionsPoint, error) {
	opt.Ring = opt.Ring.OrDefault()
	scale := 0.05
	if len(opt.ScalesMB) > 0 {
		scale = opt.ScalesMB[0]
	}
	db := tpch.Generate(tpch.Config{ScaleMB: scale, Seed: opt.Seed})

	runBatch := func(concurrent bool) (float64, transport.SessionStats, error) {
		ca, cb, err := loopbackPair()
		if err != nil {
			return 0, transport.SessionStats{}, err
		}
		sa := mpc.NewSession(mpc.Alice, ca, opt.Ring, mpc.SessionConfig{})
		sb := mpc.NewSession(mpc.Bob, cb, opt.Ring, mpc.SessionConfig{})
		defer sa.Close()
		defer sb.Close()

		type unit struct{ pa, pb *mpc.Party }
		units := make([]unit, n)
		for i := 0; i < n; i++ {
			pa, err := sa.PartyOn(uint32(i))
			if err != nil {
				return 0, transport.SessionStats{}, err
			}
			pb, err := sb.PartyOn(uint32(i))
			if err != nil {
				return 0, transport.SessionStats{}, err
			}
			units[i] = unit{pa, pb}
		}
		runOne := func(u unit) error {
			errc := make(chan error, 1)
			go func() {
				_, err := spec.SecureOpts(u.pb, db, core.Options{})
				errc <- err
			}()
			if _, err := spec.SecureOpts(u.pa, db, core.Options{}); err != nil {
				<-errc
				return err
			}
			return <-errc
		}
		start := time.Now()
		if concurrent {
			var wg sync.WaitGroup
			errs := make([]error, n)
			for i, u := range units {
				wg.Add(1)
				go func(i int, u unit) {
					defer wg.Done()
					errs[i] = runOne(u)
				}(i, u)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return 0, transport.SessionStats{}, err
				}
			}
		} else {
			for _, u := range units {
				if err := runOne(u); err != nil {
					return 0, transport.SessionStats{}, err
				}
			}
		}
		secs := time.Since(start).Seconds()
		st := sa.Stats()
		for _, u := range units {
			u.pa.Conn.Close()
			u.pb.Conn.Close()
		}
		return secs, st, nil
	}

	serialSec, _, err := runBatch(false)
	if err != nil {
		return nil, fmt.Errorf("benchmark: %s serial sessions: %w", spec.Name, err)
	}
	concSec, concStats, err := runBatch(true)
	if err != nil {
		return nil, fmt.Errorf("benchmark: %s concurrent sessions: %w", spec.Name, err)
	}

	pt := &SessionsPoint{
		Query:     spec.Name,
		ScaleMB:   scale,
		N:         n,
		SerialSec: serialSec,
		ConcSec:   concSec,
		Speedup:   serialSec / concSec,
		SerialQPS: float64(n) / serialSec,
		ConcQPS:   float64(n) / concSec,
		ConcStats: concStats,
	}
	payload := concStats.Data.BytesSent + concStats.Data.BytesReceived
	pt.StreamUtil = float64(payload) / float64(payload+2*concStats.OverheadBytesSent)

	fmt.Fprintf(w, "%s @ %gMB, %d sessions over one TCP connection:\n", pt.Query, pt.ScaleMB, pt.N)
	fmt.Fprintf(w, "  serial:     %6.2fs  (%.2f queries/s)\n", pt.SerialSec, pt.SerialQPS)
	fmt.Fprintf(w, "  concurrent: %6.2fs  (%.2f queries/s)  speedup %.2fx\n", pt.ConcSec, pt.ConcQPS, pt.Speedup)
	fmt.Fprintf(w, "  streams: %d, payload %.2f MB, mux overhead %.1f kB (%.2f%% of wire traffic)\n",
		pt.ConcStats.Streams,
		float64(payload)/1e6,
		float64(2*pt.ConcStats.OverheadBytesSent)/1e3,
		100*(1-pt.StreamUtil))
	return pt, nil
}
