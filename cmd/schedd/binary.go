// The compact binary listener: length-prefixed record frames (see
// internal/fed: wire.go) carrying the same mutations as the HTTP/JSON
// endpoints, minus the JSON. One goroutine per connection reads frames
// through a buffered reader, applies the records through the server's
// one mutation path (server.applyIn, shared with the HTTP handlers), and
// writes the framed response through a buffered writer that only
// flushes when the connection has no further request buffered — so a
// client streaming batches pays one syscall per pipeline stall, not one
// per record.
//
// A frame is one fed.Batch: its records only buffer in their shards'
// journals, and the frame commits once, on the error path too, before
// its reply is written — one fsync per touched shard per frame. At
// -fsync 1 no reply, OK or Err, precedes the sync of the records it
// applied; -fsync N risks at most N-1 acknowledged records per shard. A
// concurrent reader may see a frame's records before the frame's sync.

package main

import (
	"bufio"
	"net"
	"sync"

	"github.com/hpcsched/gensched/internal/durable"
	"github.com/hpcsched/gensched/internal/fed"
	"github.com/hpcsched/gensched/internal/online"
)

// applyWire applies one request frame's records in order into batch b
// through the same path as their HTTP equivalents, commits b, and
// reports the resulting clock plus every start notification, appended
// to buf. An error aborts the batch at the failing record; prior
// records stay applied, exactly as if they had been sent as separate
// frames, and are committed like the rest: the caller writes no reply,
// OK or Err, before they are durable.
func (sv *server) applyWire(b *fed.Batch, recs []durable.Record, buf []online.Start) (float64, []online.Start, error) {
	var (
		clock float64
		err   error
	)
	for i := range recs {
		if err = checkWireOp(recs[i].Op); err != nil {
			break
		}
		if _, buf, clock, err = sv.applyIn(b, &recs[i], buf); err != nil {
			break
		}
	}
	return clock, buf, b.Commit(err)
}

// checkWireOp restricts the wire to the scheduling mutations: the
// journal codec can also express genesis records, which are the
// daemon's own to write, and adaptive-loop control, which is /v1/adapt's.
func checkWireOp(op durable.Op) error {
	switch op {
	case durable.OpSubmit, durable.OpComplete, durable.OpAdvance, durable.OpPolicy:
		return nil
	}
	return badRequest(&wireOpError{op})
}

type wireOpError struct{ op durable.Op }

func (e *wireOpError) Error() string {
	return "op " + e.op.String() + " is not accepted over the wire"
}

// binServer owns the binary listener and its connections.
type binServer struct {
	l  net.Listener
	sv *server

	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	stopped bool
	wg      sync.WaitGroup
}

func newBinServer(l net.Listener, sv *server) *binServer {
	return &binServer{l: l, sv: sv, conns: make(map[net.Conn]struct{})}
}

// start launches the accept loop.
func (b *binServer) start() {
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		for {
			c, err := b.l.Accept()
			if err != nil {
				return // listener closed by stop()
			}
			b.mu.Lock()
			if b.stopped {
				b.mu.Unlock()
				_ = c.Close() // shutting down; the dial loses the race
				return
			}
			b.conns[c] = struct{}{}
			b.mu.Unlock()
			b.wg.Add(1)
			go func() {
				defer b.wg.Done()
				b.serveConn(c)
			}()
		}
	}()
}

// stop closes the listener and every connection and waits for the
// handlers to return. Idempotent; called at the start of the graceful
// drain so that once it returns, no binary mutation is in flight.
func (b *binServer) stop() {
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		b.wg.Wait()
		return
	}
	b.stopped = true
	conns := make([]net.Conn, 0, len(b.conns))
	for c := range b.conns {
		conns = append(conns, c)
	}
	b.mu.Unlock()
	_ = b.l.Close() // best-effort teardown; Accept unblocks either way
	for _, c := range conns {
		_ = c.Close() // unblocks the conn's blocked Read
	}
	b.wg.Wait()
}

// serveConn runs one connection's request loop. All buffers are
// per-connection scratch reused across frames, so the steady state
// allocates nothing.
func (b *binServer) serveConn(c net.Conn) {
	defer func() {
		b.mu.Lock()
		delete(b.conns, c)
		b.mu.Unlock()
		_ = c.Close() // close errors after the loop exits carry no signal
	}()
	br := bufio.NewReaderSize(c, 64<<10)
	bw := bufio.NewWriterSize(c, 64<<10)
	batch := b.sv.fd.Batch()
	var (
		frame  []byte
		recs   []durable.Record
		starts []online.Start
		resp   []byte
		out    []byte
	)
	for {
		payload, err := fed.ReadFrame(br, frame)
		if err != nil {
			return // EOF between frames is the normal hangup; mid-frame garbage also ends the conn
		}
		frame = payload
		resp = resp[:0]
		recs, err = fed.DecodeMsg(payload, recs[:0])
		if err != nil {
			// The frame itself was delimited, so the stream is still in
			// sync: report and keep serving.
			resp = fed.AppendErrResp(resp, 400, false, err.Error())
		} else {
			var now float64
			now, starts, err = b.sv.applyWire(&batch, recs, starts[:0])
			if err != nil {
				resp = fed.AppendErrResp(resp, errStatus(err), fed.Retryable(err), err.Error())
			} else {
				resp = fed.AppendOKResp(resp, now, starts)
			}
		}
		out = fed.AppendFrame(out[:0], resp)
		if _, werr := bw.Write(out); werr != nil {
			return
		}
		// Flush only when the client has nothing further buffered: a
		// pipelined burst of frames gets one write syscall per stall.
		if br.Buffered() == 0 {
			if werr := bw.Flush(); werr != nil {
				return
			}
		}
	}
}
