package session

import (
	"bufio"
	"fmt"
	"net"
	"sort"
	"time"

	"treeaa/internal/transport"
	"treeaa/internal/tree"
	"treeaa/internal/wire"
)

// The client API speaks the binary wire codec over TCP: each request is one
// length-prefixed frame (transport framing) around a ClientSubmit,
// ClientWait or ClientStatus payload, and each response is one framed
// ClientOutcome. One connection carries any number of request/response
// pairs in order. Three ops:
//
//	submit  admit a session (sid 0 = auto-assign); wait=true blocks for the
//	        terminal Outcome, wait=false returns the assigned sid at once
//	status  current lifecycle view of a session on this daemon
//	wait    block until the session reaches a terminal state
//
// OK reports request-level success (the daemon processed the op); a session
// that failed or expired still answers OK with the failure in State/Err.

// maxClientRequest bounds one request frame; specs are tiny, so anything
// bigger is a confused or hostile client.
const maxClientRequest = 1 << 20

func (d *Daemon) acceptClients() {
	defer d.clientWG.Done()
	for {
		conn, err := d.clientLn.Accept()
		if err != nil {
			return // listener closed on shutdown
		}
		d.clientWG.Add(1)
		go d.serveClient(conn)
	}
}

// serveClient runs one connection's request loop until the client hangs up
// or the daemon finishes draining (closedCh fires only after the drain, so
// blocked waits get real outcomes before the connection dies).
func (d *Daemon) serveClient(conn net.Conn) {
	defer d.clientWG.Done()
	defer conn.Close()
	connDone := make(chan struct{})
	defer close(connDone)
	go func() {
		select {
		case <-d.closedCh:
			conn.Close()
		case <-connDone:
		}
	}()
	// Framed wire payloads in both directions. A frame that fails to decode
	// tears the connection down (framing is lost); a well-formed frame of the
	// wrong type answers with an error outcome and keeps the connection.
	br := bufio.NewReader(conn)
	for {
		body, err := transport.ReadFrame(br, maxClientRequest)
		if err != nil {
			return
		}
		payload, err := wire.Decode(body)
		if err != nil {
			return
		}
		out, err := wire.Encode(d.handleRequest(payload))
		if err != nil {
			return
		}
		frame := transport.AppendFrame(nil, out)
		if _, err := conn.Write(frame); err != nil {
			return
		}
		d.opts.Stats.ClientBytes.Add(int64(len(frame)))
	}
}

// requestError answers a request the daemon could not process; it carries
// no session state.
func requestError(msg string) wire.ClientOutcome {
	return wire.ClientOutcome{State: wire.ClientStateNone, Err: msg}
}

func (d *Daemon) handleRequest(payload any) wire.ClientOutcome {
	switch req := payload.(type) {
	case wire.ClientSubmit:
		spec := Spec{Tree: req.Tree, Seed: req.Seed, T: req.T, Inputs: req.Inputs,
			TTL: time.Duration(req.TTLMillis) * time.Millisecond}
		sid, err := d.mgr.Submit(spec, req.SID)
		if err != nil {
			return requestError(err.Error())
		}
		if !req.Wait {
			return wire.ClientOutcome{OK: true, SID: sid, State: byte(StatePending)}
		}
		return d.await(sid)
	case wire.ClientStatus:
		out, ok := d.mgr.Status(req.SID)
		if !ok {
			return requestError(fmt.Sprintf("unknown session id %#x", req.SID))
		}
		return clientOutcome(out)
	case wire.ClientWait:
		return d.await(req.SID)
	}
	return requestError(fmt.Sprintf("unexpected %T on client connection", payload))
}

// await blocks until the session's terminal Outcome. Bounded: every session
// has a deadline, and the post-drain shutdown closes closedCh.
func (d *Daemon) await(sid uint64) wire.ClientOutcome {
	ch, err := d.mgr.Wait(sid)
	if err != nil {
		return requestError(err.Error())
	}
	select {
	case out := <-ch:
		return clientOutcome(out)
	case <-d.closedCh:
		return requestError("daemon shutting down")
	}
}

// clientOutcome converts a session Outcome into its wire form. Outputs sort
// by party, which the codec's canonical encoding requires.
func clientOutcome(out Outcome) wire.ClientOutcome {
	co := wire.ClientOutcome{OK: true, SID: out.SID, State: byte(out.State),
		Err: out.Err, LatencyNS: out.Latency.Nanoseconds()}
	if r := out.Result; r != nil {
		co.Rounds, co.Msgs, co.Bytes = r.Rounds, r.Messages, r.Bytes
		for p, v := range r.Outputs {
			if vid, ok := v.(tree.VertexID); ok {
				co.Outputs = append(co.Outputs, wire.OutputPair{Party: p, V: vid})
			}
		}
		sort.Slice(co.Outputs, func(i, j int) bool { return co.Outputs[i].Party < co.Outputs[j].Party })
	}
	return co
}
