//go:build !unix

package transport

import "net"

// sockWriter has no non-blocking write on this platform: every link is
// written by its flusher.
type sockWriter struct{}

func newSockWriter(net.Conn) *sockWriter { return nil }

func (*sockWriter) write([]byte) int { return 0 }
