// Package daemon implements secyand: a long-running multi-tenant query
// service over the multiplexed session layer. One daemon process plays
// Bob (the data server) for many concurrently connected clients, each
// playing Alice over its own TCP connection/session. A weighted-fair
// scheduler with admission control decides which query runs next on
// whose budget; per-tenant quotas shed load with typed errors instead
// of dropped connections; and the precompute farm spends a queued
// query's wait on that query's own offline phase, co-run with its
// client. See DESIGN.md §11.
package daemon

import (
	"errors"
	"fmt"
)

// ErrOverloaded reports load shedding that is not the tenant's fault:
// the daemon's global queue is full, or it is draining for shutdown.
// Retry later, ideally with backoff.
var ErrOverloaded = errors.New("secyand: overloaded")

// ErrQuotaExceeded reports load shedding attributable to the tenant's
// own quota: queued-depth, concurrency or bytes/sec limits, or an
// unknown tenant on a closed daemon.
var ErrQuotaExceeded = errors.New("secyand: tenant quota exceeded")

// Wire rejection codes. The daemon maps its typed shedding errors onto
// these for the control protocol; the client maps them back, so
// errors.Is(err, ErrOverloaded / ErrQuotaExceeded) works across the
// connection.
const (
	codeOverloaded   = "overloaded"
	codeQuota        = "quota"
	codeUnknownQuery = "unknown-query"
	codeBadRequest   = "bad-request"
	codeInternal     = "internal"
)

// codeFor maps a daemon-side admission error to its wire code.
func codeFor(err error) string {
	switch {
	case errors.Is(err, ErrQuotaExceeded):
		return codeQuota
	case errors.Is(err, ErrOverloaded):
		return codeOverloaded
	default:
		return codeInternal
	}
}

// RejectedError is the client-side view of one shed or refused query.
// It unwraps to ErrOverloaded or ErrQuotaExceeded for the shedding
// codes, so callers branch with errors.Is.
type RejectedError struct {
	Tenant string
	Query  string
	Code   string
	Detail string
}

func (e *RejectedError) Error() string {
	return fmt.Sprintf("secyand: query %q rejected for tenant %q (%s): %s",
		e.Query, e.Tenant, e.Code, e.Detail)
}

func (e *RejectedError) Unwrap() error {
	switch e.Code {
	case codeOverloaded:
		return ErrOverloaded
	case codeQuota:
		return ErrQuotaExceeded
	}
	return nil
}
