package transport

import "net"

// AcceptHost owns one seat's listener and hands every accepted connection to
// the seat's handler. The mesh endpoints, the tree overlay's interior nodes
// and the serving daemons all sit behind one; the listen address belongs to
// the host, so it outlives whatever the handler feeds.
type AcceptHost struct {
	ln     net.Listener
	handle func(net.Conn)
}

// NewAcceptHost starts accepting on ln. handle takes ownership of each
// connection and must not block; a seat that is gone closes it.
func NewAcceptHost(ln net.Listener, handle func(net.Conn)) *AcceptHost {
	h := &AcceptHost{ln: ln, handle: handle}
	go h.loop()
	return h
}

func (h *AcceptHost) loop() {
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return // listener closed
		}
		h.handle(conn)
	}
}

// Close releases the listen address; the accept loop exits.
func (h *AcceptHost) Close() { h.ln.Close() }
