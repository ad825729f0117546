package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strconv"

	"github.com/hpcsched/gensched/internal/fed"
)

// conn is one keep-alive connection to the daemon, HTTP/1.1 or the
// binary wire. It is hand-rolled on a bufio.Reader rather than built on
// net/http's client so that the generator costs one write, one read and
// no allocation per op: two connections and two goroutines are the whole
// client, and what it measures is the daemon.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte // response scratch, reused
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() { _ = c.c.Close() } // teardown of a benchmark connection; nothing to report

// grow returns the response scratch with length n.
func (c *conn) grow(n int) []byte {
	if cap(c.body) < n {
		c.body = make([]byte, n)
	}
	return c.body[:n]
}

// http sends one pre-rendered request and returns the status and body.
// The body is scratch, valid until the next call.
func (c *conn) http(req []byte) (status int, body []byte, err error) {
	if _, err := c.c.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK\r\n"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked := -1, false
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		if v, ok := headerValue(line, "Content-Length:"); ok {
			if length, err = strconv.Atoi(v); err != nil {
				return 0, nil, fmt.Errorf("malformed Content-Length %q", v)
			}
		} else if v, ok := headerValue(line, "Transfer-Encoding:"); ok && v == "chunked" {
			chunked = true
		}
	}
	switch {
	case chunked:
		body, err = c.readChunked()
	case length >= 0:
		body = c.grow(length)
		_, err = io.ReadFull(c.br, body)
	default:
		err = fmt.Errorf("response has neither Content-Length nor chunked encoding")
	}
	return status, body, err
}

// headerValue matches a header line against a canonical name (net/http
// servers emit canonical names) and returns its trimmed value.
func headerValue(line []byte, name string) (string, bool) {
	if len(line) < len(name) || !bytes.EqualFold(line[:len(name)], []byte(name)) {
		return "", false
	}
	return string(bytes.TrimSpace(line[len(name):])), true
}

func (c *conn) readChunked() ([]byte, error) {
	body := c.body[:0]
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return nil, err
		}
		n, err := strconv.ParseUint(string(bytes.TrimSpace(line)), 16, 31)
		if err != nil {
			return nil, fmt.Errorf("malformed chunk size %q", line)
		}
		at := len(body)
		body = append(body, make([]byte, int(n)+2)...) // chunk + CRLF
		if _, err := io.ReadFull(c.br, body[at:]); err != nil {
			return nil, err
		}
		body = body[:at+int(n)]
		if n == 0 {
			c.body = body
			return body, nil
		}
	}
}

// get issues a GET and insists on 200.
func (c *conn) get(path string) ([]byte, error) {
	status, body, err := c.http(appendHTTPRequest(nil, "GET", path, nil))
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if status != 200 {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, status, bytes.TrimSpace(body))
	}
	return body, nil
}

// frame sends one pre-framed binary request and returns the response
// payload (scratch, valid until the next call) after checking it is OK.
func (c *conn) frame(req []byte) ([]byte, error) {
	if _, err := c.c.Write(req); err != nil {
		return nil, err
	}
	var hdr [4]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > fed.MaxWireFrame {
		return nil, fmt.Errorf("response frame length %d out of range", n)
	}
	payload := c.grow(int(n))
	if _, err := io.ReadFull(c.br, payload); err != nil {
		return nil, err
	}
	if payload[0] != fed.RespOK {
		_, _, err := fed.DecodeResp(payload, nil)
		return nil, fmt.Errorf("binary response is not OK: %v", err)
	}
	return payload, nil
}
