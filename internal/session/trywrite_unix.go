//go:build unix

package session

import (
	"net"
	"syscall"
)

// sockWriter offers bytes to a connection's socket without ever waiting for
// it: the write a drainer makes on its own goroutine. It exists only for
// connections that expose their descriptor (a *net.TCPConn); the chaos and
// test wrappers do not, and their links are written by the flusher alone.
// One sockWriter serves one link generation, used under the link's writer
// lock, so the callback and its operands are allocated once.
type sockWriter struct {
	raw syscall.RawConn
	buf []byte
	n   int
	fn  func(fd uintptr) bool
}

func newSockWriter(conn net.Conn) *sockWriter {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	w := &sockWriter{raw: raw}
	// The callback reports success whatever write(2) said, so RawConn.Write
	// never parks the caller on the poller waiting for a full socket.
	w.fn = func(fd uintptr) bool {
		w.n, _ = syscall.Write(int(fd), w.buf)
		return true
	}
	return w
}

// write offers b once and returns how many bytes the socket took: all of
// them, some, or none (full socket, dead socket, expired write deadline —
// the flusher's blocking write finds out which).
func (w *sockWriter) write(b []byte) int {
	w.buf, w.n = b, 0
	err := w.raw.Write(w.fn)
	w.buf = nil
	if err != nil || w.n < 0 {
		return 0
	}
	return w.n
}
