package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"
)

// conn is one backup client's keep-alive HTTP/1.1 connection to the front
// end. Requests are written straight from the input arena and replies are
// parsed in place, so the load generator costs little of the CPU it
// shares with the stack.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	body bytes.Buffer
}

func dialConn(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial front end: %w", err)
	}
	return &conn{addr: addr, c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) close() error { return c.c.Close() }

func (c *conn) redial() error {
	c.c.Close()
	nc, err := dialConn(c.addr)
	if err != nil {
		return err
	}
	c.c, c.br = nc.c, nc.br
	return nil
}

// post sends one pre-encoded request and returns the reply's status and
// body; the body is valid until the next post.
func (c *conn) post(req []byte) (int, []byte, error) {
	if _, err := c.c.Write(req); err != nil {
		return 0, nil, fmt.Errorf("write plan: %w", err)
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, fmt.Errorf("read reply: %w", err)
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, fmt.Errorf("read reply body: %w", err)
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

// parseMissing decodes a {"missing":[i,...]} reply into dst, checking
// every index against the plan size n.
func parseMissing(body []byte, dst []uint32, n int) (int, error) {
	i := bytes.IndexByte(body, '[')
	if i < 0 || !bytes.HasPrefix(body, []byte(`{"missing":`)) {
		return 0, fmt.Errorf("malformed reply %.64q", body)
	}
	k := 0
	v, digits := 0, 0
	for _, b := range body[i+1:] {
		switch {
		case b >= '0' && b <= '9':
			v = v*10 + int(b-'0')
			digits++
			if v >= n {
				return 0, fmt.Errorf("missing index %d out of range for a %d-fingerprint plan", v, n)
			}
		case b == ',' || b == ']':
			if digits > 0 {
				if k == len(dst) {
					return 0, errors.New("reply lists more indices than the plan has")
				}
				dst[k] = uint32(v)
				k++
			} else if b == ',' {
				return 0, fmt.Errorf("malformed reply %.64q", body)
			}
			if b == ']' {
				return k, nil
			}
			v, digits = 0, 0
		default:
			return 0, fmt.Errorf("malformed reply %.64q", body)
		}
	}
	return 0, fmt.Errorf("truncated reply %.64q", body)
}

// phase is one span of every stream's plans that the clients replay
// together.
type phase struct {
	from, to func(s *stream) int
	timed    bool
}

var (
	preloadPhase = phase{from: func(*stream) int { return 0 }, to: func(s *stream) int { return len(s.plans) }}
	warmPhase    = phase{from: func(*stream) int { return 0 }, to: func(s *stream) int { return s.warm }}
)

// timedRound is round r of each stream's timed plans cut into equal
// rounds.
func timedRound(r, rounds int) phase {
	at := func(s *stream, r int) int { return s.warm + (len(s.plans)-s.warm)*r/rounds }
	return phase{
		from:  func(s *stream) int { return at(s, r) },
		to:    func(s *stream) int { return at(s, r+1) },
		timed: true,
	}
}

// drive runs one closed-loop client per stream: each sends its next plan
// only after the previous reply has arrived. It returns the wall time from
// the common start until the last client finished. A plan that fails is
// marked in its stream; only a connection that cannot be re-established
// aborts the phase.
func drive(conns []*conn, streams []*stream, ph phase) (time.Duration, error) {
	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		errs  = make([]error, len(streams))
	)
	deadline := time.Now().Add(150 * time.Second)
	for i, s := range streams {
		if err := conns[i].c.SetDeadline(deadline); err != nil {
			return 0, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			errs[i] = runClient(conns[i], s, ph)
		}()
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	return time.Since(t0), errors.Join(errs...)
}

func runClient(c *conn, s *stream, ph phase) error {
	lo, hi := ph.from(s), ph.to(s)
	for i := lo; i < hi; i++ {
		p := s.plans[i]
		t0 := time.Now()
		status, body, err := c.post(p.req)
		lat := time.Since(t0)
		if ph.timed {
			s.lat[i-s.warm] = lat
		}
		off := s.missOff[i]
		s.missOff[i+1] = off
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("plan %d: HTTP %d: %.200s", i, status, body)
		}
		if err == nil {
			var n int
			n, err = parseMissing(body, s.missing[off:off+len(p.ids)], len(p.ids))
			s.missOff[i+1] = off + n
		}
		if err != nil {
			s.failed[i] = true
			if s.failMsg == "" {
				s.failMsg = err.Error()
			}
			if !ph.timed {
				return err
			}
			if rerr := c.redial(); rerr != nil {
				for j := i + 1; j < hi; j++ {
					s.failed[j] = true
					s.missOff[j+1] = s.missOff[j]
				}
				return errors.Join(err, rerr)
			}
			if err := c.c.SetDeadline(time.Now().Add(150 * time.Second)); err != nil {
				return err
			}
		}
	}
	return nil
}
