package session

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"treeaa/internal/sim"
	"treeaa/internal/transport"
	"treeaa/internal/wire"
)

// Client speaks the binary client API to one daemon. It is safe for
// concurrent use; requests on one client serialize over its connection, so
// load generators open one client per worker.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	wbuf []byte
}

// DialClient connects to a daemon's client API address.
func DialClient(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, br: bufio.NewReader(conn)}, nil
}

// Response answers one client API call.
type Response struct {
	OK    bool
	Err   string
	SID   uint64
	State string // a State name; empty on a request-level error
	// Terminal decided sessions only: the assembled Result fields.
	Outputs   []wire.OutputPair
	Rounds    int
	Messages  int
	Bytes     int
	LatencyNS int64
}

// do sends one request payload and reads its ClientOutcome. what names the
// call for the error a rejected request is reported as.
func (c *Client) do(what string, req any) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	body, err := wire.Encode(req)
	if err != nil {
		return nil, err
	}
	c.wbuf = transport.AppendFrame(c.wbuf[:0], body)
	if _, err := c.conn.Write(c.wbuf); err != nil {
		return nil, err
	}
	respBody, err := transport.ReadFrame(c.br, transport.MaxFrameSize)
	if err != nil {
		return nil, err
	}
	decoded, err := wire.Decode(respBody)
	if err != nil {
		return nil, err
	}
	out, ok := decoded.(wire.ClientOutcome)
	if !ok {
		return nil, fmt.Errorf("session: unexpected %T from daemon", decoded)
	}
	if !out.OK {
		return nil, fmt.Errorf("session: %s: %s", what, out.Err)
	}
	resp := &Response{OK: true, Err: out.Err, SID: out.SID, LatencyNS: out.LatencyNS,
		Rounds: out.Rounds, Messages: out.Msgs, Bytes: out.Bytes, Outputs: out.Outputs}
	if out.State != wire.ClientStateNone {
		resp.State = State(out.State).String()
	}
	return resp, nil
}

func (c *Client) Close() error { return c.conn.Close() }

// Submit offers a session. sid 0 auto-assigns. With wait the call blocks
// until the terminal Outcome; without it the response carries the assigned
// sid immediately. A rejection (capacity, duplicate, bad spec) is returned
// as an error.
func (c *Client) Submit(spec Spec, sid uint64, wait bool) (*Response, error) {
	ttl := spec.TTL.Milliseconds()
	if ttl < 0 {
		ttl = 0
	}
	return c.do("submit rejected", wire.ClientSubmit{SID: sid, Tree: spec.Tree, Seed: spec.Seed,
		T: spec.T, Inputs: spec.Inputs, TTLMillis: uint64(ttl), Wait: wait})
}

// Status queries a session's current lifecycle view.
func (c *Client) Status(sid uint64) (*Response, error) {
	return c.do("status", wire.ClientStatus{SID: sid})
}

// Wait blocks until the session reaches a terminal state.
func (c *Client) Wait(sid uint64) (*Response, error) {
	return c.do("wait", wire.ClientWait{SID: sid})
}

// Decided reports whether the response is a decided terminal outcome.
func (r *Response) Decided() bool { return r.State == StateDecided.String() }

// SimResult reconstructs the sim.Result a decided response carries, in the
// exact shape sim.Run returns — the form the oracle comparison DeepEquals.
func (r *Response) SimResult() (*sim.Result, error) {
	if !r.Decided() {
		return nil, fmt.Errorf("session: session %#x is %s: %s", r.SID, r.State, r.Err)
	}
	res := &sim.Result{
		Rounds:    r.Rounds,
		Messages:  r.Messages,
		Bytes:     r.Bytes,
		Outputs:   make(map[sim.PartyID]any, len(r.Outputs)),
		Corrupted: make(map[sim.PartyID]bool),
	}
	for _, p := range r.Outputs {
		res.Outputs[p.Party] = p.V
	}
	return res, nil
}
