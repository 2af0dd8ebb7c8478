package transport

import (
	"fmt"
	"math/rand"
	"net"
	"time"
)

// Dial backoff. Peers come up in arbitrary order, so early connection
// refusals are expected; the backoff is jittered so that n-1 dialers
// refused by the same slow peer do not retry in lock step and hammer its
// accept queue on synchronized ticks.
const (
	dialBackoffBase = 5 * time.Millisecond
	dialBackoffCap  = 250 * time.Millisecond
)

// DialRetry dials addr with jittered, capped exponential backoff until the
// deadline. It is the default dialer of both fabrics' links: Options.Dialer
// here, session.Options.Dialer for the serving daemons.
func DialRetry(addr string, deadline time.Time) (net.Conn, error) {
	return retryDial(addr, deadline, retryConfig{
		dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		},
		sleep: time.Sleep,
		randn: rand.Int63n,
	})
}

// retryConfig injects the side effects of the retry loop so the backoff
// schedule is unit-testable without sockets or real sleeps.
type retryConfig struct {
	dial  func(addr string, timeout time.Duration) (net.Conn, error)
	sleep func(time.Duration)
	randn func(n int64) int64 // uniform in [0, n)
}

func retryDial(addr string, deadline time.Time, rc retryConfig) (net.Conn, error) {
	backoff := dialBackoffBase
	for {
		timeout := time.Until(deadline)
		if timeout <= 0 {
			return nil, fmt.Errorf("dial deadline exceeded")
		}
		conn, err := rc.dial(addr, timeout)
		if err == nil {
			return conn, nil
		}
		// Equal jitter: wait uniformly in [backoff/2, backoff], then double
		// the ceiling up to the cap. Attempts stay spread out even after
		// every dialer has reached the cap.
		wait := backoff/2 + time.Duration(rc.randn(int64(backoff/2)+1))
		if time.Now().Add(wait).After(deadline) {
			return nil, err
		}
		rc.sleep(wait)
		if backoff *= 2; backoff > dialBackoffCap {
			backoff = dialBackoffCap
		}
	}
}
