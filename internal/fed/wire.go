// The federation wire protocol: length-prefixed binary frames carrying
// the SAME fixed-width little-endian record payloads the durable journal
// writes (durable.AppendRecord / durable.DecodeRecord), so the hot
// submit/complete path shares one codec and one set of golden vectors
// with the on-disk format. A frame is
//
//	[len u32le][kind u8][body...]
//
// where len counts the kind byte plus body. Requests are single records
// (MsgRecord) or batches (MsgBatch) amortizing one syscall over many
// submits; responses carry the scheduling outcome (RespOK: clock, then
// the started jobs) or an error (RespErr: HTTP-ish status code and
// message). The codec is allocation-light by construction: every
// encoder appends to a caller-owned buffer, and the frame reader reuses
// the caller's scratch.

package fed

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"github.com/hpcsched/gensched/internal/durable"
	"github.com/hpcsched/gensched/internal/online"
)

// Message kinds (first payload byte of a request frame).
const (
	// MsgRecord carries one durable record payload.
	MsgRecord byte = 0x01
	// MsgBatch carries u32 count, then count × (u32 len + record payload).
	MsgBatch byte = 0x02
)

// Response kinds (first payload byte of a response frame).
const (
	// RespOK carries f64 now, u32 n, then n starts
	// (i64 id, f64 time, f64 wait, u8 backfilled).
	RespOK byte = 0x00
	// RespErr carries u32 status code, u8 flags, u32 len, message bytes.
	// Flag bit 0 marks the error retryable: the request was refused
	// without being applied (drain in progress, shard quarantined) and
	// the same request may succeed after a backoff — the wire analogue of
	// HTTP 503 + Retry-After. Errors with the bit clear are fatal: the
	// request is malformed, or it was applied but could not be journaled,
	// and resending it would double-apply.
	RespErr byte = 0x01
)

// RespErr flag bits.
const (
	// ErrFlagRetryable marks a refused-before-apply error safe to resend.
	ErrFlagRetryable byte = 1 << 0
)

// MaxWireFrame bounds one frame's payload, mirroring the journal's
// frame cap: large enough for a many-thousand-job batch, small enough
// that a corrupt length prefix cannot demand an absurd allocation.
const MaxWireFrame = 1 << 26

// wireHeader is the length prefix size.
const wireHeader = 4

// AppendFrame frames a payload onto dst: u32le length, then the bytes.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// ReadFrame reads one length-prefixed frame from r into buf (grown as
// needed) and returns the payload. io.EOF cleanly between frames means
// the peer is done; a short read mid-frame is an error.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [wireHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("fed: truncated frame header")
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, fmt.Errorf("fed: empty frame")
	}
	if n > MaxWireFrame {
		return nil, fmt.Errorf("fed: frame length %d exceeds cap %d", n, MaxWireFrame)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("fed: truncated frame body: %w", err)
	}
	return buf, nil
}

// AppendBatchMsg encodes a batch request payload onto dst. Records are
// applied by the receiver in order, so a batch behaves exactly like its
// records sent back to back — minus the per-record syscalls.
func AppendBatchMsg(dst []byte, recs []durable.Record) ([]byte, error) {
	dst = append(dst, MsgBatch)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(recs)))
	for i := range recs {
		// Length-prefix each record: record payloads are not
		// self-delimiting.
		lenAt := len(dst)
		dst = append(dst, 0, 0, 0, 0)
		var err error
		dst, err = durable.AppendRecord(dst, &recs[i])
		if err != nil {
			return nil, err
		}
		binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	}
	return dst, nil
}

// DecodeMsg parses a request payload into its records. A MsgRecord
// yields one record; a MsgBatch yields its records in order. A record
// carrying a NaN or infinite float fails the whole message. scratch is
// appended to and returned to amortize allocation across frames.
func DecodeMsg(payload []byte, scratch []durable.Record) ([]durable.Record, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("fed: empty message")
	}
	kind, body := payload[0], payload[1:]
	switch kind {
	case MsgRecord:
		rec, err := durable.DecodeRecord(body)
		if err != nil {
			return nil, err
		}
		if err := checkFinite(&rec); err != nil {
			return nil, err
		}
		return append(scratch, rec), nil
	case MsgBatch:
		if len(body) < 4 {
			return nil, fmt.Errorf("fed: truncated batch count")
		}
		n := binary.LittleEndian.Uint32(body)
		body = body[4:]
		// Each record costs at least its length prefix plus an op byte.
		if uint64(n)*5 > uint64(len(body)) {
			return nil, fmt.Errorf("fed: batch count %d exceeds remaining payload", n)
		}
		for i := uint32(0); i < n; i++ {
			if len(body) < 4 {
				return nil, fmt.Errorf("fed: truncated batch record %d length", i)
			}
			rl := binary.LittleEndian.Uint32(body)
			body = body[4:]
			if uint64(rl) > uint64(len(body)) {
				return nil, fmt.Errorf("fed: batch record %d length %d exceeds remaining payload", i, rl)
			}
			rec, err := durable.DecodeRecord(body[:rl])
			if err == nil {
				err = checkFinite(&rec)
			}
			if err != nil {
				return nil, fmt.Errorf("fed: batch record %d: %w", i, err)
			}
			scratch = append(scratch, rec)
			body = body[rl:]
		}
		if len(body) != 0 {
			return nil, fmt.Errorf("fed: batch has %d trailing bytes", len(body))
		}
		return scratch, nil
	}
	return nil, fmt.Errorf("fed: unknown message kind 0x%02x", kind)
}

// checkFinite refuses a record carrying a NaN or infinite float: the
// codec can express one, but no clock, job length or loop tuning the
// scheduler orders or compares by may be non-finite. x-x is 0 for every
// finite x and NaN otherwise, so one sum screens every float the record
// carries.
func checkFinite(rec *durable.Record) error {
	j := &rec.Job
	s := (rec.Now - rec.Now) + (j.Submit - j.Submit) + (j.Runtime - j.Runtime) + (j.Estimate - j.Estimate)
	if in := rec.Init; in != nil {
		s += in.Tau - in.Tau
	}
	if ac := rec.Adapt; ac != nil {
		s += (ac.Interval - ac.Interval) + (ac.MinDrift - ac.MinDrift) + (ac.Margin - ac.Margin) + (ac.Cooldown - ac.Cooldown)
	}
	if s != 0 {
		return fmt.Errorf("fed: %v record carries a non-finite float", rec.Op)
	}
	return nil
}

// AppendOKResp encodes a success response payload onto dst.
func AppendOKResp(dst []byte, now float64, starts []online.Start) []byte {
	dst = append(dst, RespOK)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(now))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(starts)))
	for _, st := range starts {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(st.ID)))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(st.Time))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(st.Wait))
		if st.Backfilled {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// AppendErrResp encodes an error response payload onto dst. retryable
// sets the flag bit telling the client the request was refused before
// being applied and may be resent after a backoff.
func AppendErrResp(dst []byte, code int, retryable bool, msg string) []byte {
	dst = append(dst, RespErr)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(code))
	var flags byte
	if retryable {
		flags |= ErrFlagRetryable
	}
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(msg)))
	return append(dst, msg...)
}

// WireError is a decoded RespErr: the federation daemon's HTTP-ish
// status code and message, surfaced to binary clients as an error value.
// Retryable mirrors the frame's flag bit — see RespErr for the
// retryable-vs-fatal split.
type WireError struct {
	Code      int
	Retryable bool
	Msg       string
}

func (e *WireError) Error() string {
	return fmt.Sprintf("fed: remote error %d: %s", e.Code, e.Msg)
}

// DecodeResp parses a response payload. On RespOK it returns the clock
// and the started jobs (appended to scratch); on RespErr it returns a
// *WireError.
func DecodeResp(payload []byte, scratch []online.Start) (now float64, starts []online.Start, err error) {
	if len(payload) == 0 {
		return 0, nil, fmt.Errorf("fed: empty response")
	}
	kind, body := payload[0], payload[1:]
	switch kind {
	case RespOK:
		if len(body) < 12 {
			return 0, nil, fmt.Errorf("fed: truncated ok response")
		}
		now = math.Float64frombits(binary.LittleEndian.Uint64(body))
		n := binary.LittleEndian.Uint32(body[8:])
		body = body[12:]
		const startSize = 25 // 3×u64 + bool
		if uint64(n)*startSize != uint64(len(body)) {
			return 0, nil, fmt.Errorf("fed: ok response carries %d bytes for %d starts", len(body), n)
		}
		for i := uint32(0); i < n; i++ {
			st := online.Start{
				ID:         int(int64(binary.LittleEndian.Uint64(body))),
				Time:       math.Float64frombits(binary.LittleEndian.Uint64(body[8:])),
				Wait:       math.Float64frombits(binary.LittleEndian.Uint64(body[16:])),
				Backfilled: body[24] != 0,
			}
			scratch = append(scratch, st)
			body = body[startSize:]
		}
		return now, scratch, nil
	case RespErr:
		if len(body) < 9 {
			return 0, nil, fmt.Errorf("fed: truncated error response")
		}
		code := int(binary.LittleEndian.Uint32(body))
		flags := body[4]
		ml := binary.LittleEndian.Uint32(body[5:])
		body = body[9:]
		if uint64(ml) != uint64(len(body)) {
			return 0, nil, fmt.Errorf("fed: error response carries %d bytes for %d-byte message", len(body), ml)
		}
		return 0, nil, &WireError{Code: code, Retryable: flags&ErrFlagRetryable != 0, Msg: string(body)}
	}
	return 0, nil, fmt.Errorf("fed: unknown response kind 0x%02x", kind)
}
