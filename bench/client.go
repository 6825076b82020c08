package bench

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// requestTimeout bounds one request; a request that exceeds it is a failed
// operation.
const requestTimeout = 30 * time.Second

// conn is one keep-alive HTTP/1.1 connection of the load generator. It
// writes requests itself and parses responses with the standard library's
// reader, so a request costs the generator one write and one read on the
// calling goroutine: no transport goroutines share the two cores with the
// servers under test.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	hdr  []byte
	body []byte
}

func dial(addr string) (*conn, error) {
	c := &conn{addr: addr}
	return c, c.redial()
}

// redial replaces the connection with a new one to the same address.
func (c *conn) redial() error {
	c.close()
	nc, err := net.DialTimeout("tcp", c.addr, 2*time.Second)
	if err != nil {
		return err
	}
	c.c, c.br = nc, bufio.NewReaderSize(nc, 16<<10)
	return nil
}

func (c *conn) close() {
	if c != nil && c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// do sends one request and returns the status and the body. The body is
// valid until the next call. After an error the connection is closed; the
// next call dials again.
func (c *conn) do(method, path, contentType string, body []byte) (int, []byte, error) {
	if c.c == nil {
		if err := c.redial(); err != nil {
			return 0, nil, err
		}
	}
	c.hdr = append(c.hdr[:0], method...)
	c.hdr = append(c.hdr, ' ')
	c.hdr = append(c.hdr, path...)
	c.hdr = append(c.hdr, " HTTP/1.1\r\nHost: "...)
	c.hdr = append(c.hdr, c.addr...)
	if method == http.MethodPost {
		if contentType != "" {
			c.hdr = append(c.hdr, "\r\nContent-Type: "...)
			c.hdr = append(c.hdr, contentType...)
		}
		c.hdr = append(c.hdr, "\r\nContent-Length: "...)
		c.hdr = strconv.AppendInt(c.hdr, int64(len(body)), 10)
	}
	c.hdr = append(c.hdr, "\r\n\r\n"...)
	status, out, err := c.roundTrip(body)
	if err != nil {
		c.close()
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return status, out, nil
}

func (c *conn) roundTrip(body []byte) (int, []byte, error) {
	if err := c.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, nil, err
	}
	bufs := net.Buffers{c.hdr, body}
	if _, err := bufs.WriteTo(c.c); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.body = c.body[:0]
	for {
		if len(c.body) == cap(c.body) {
			c.body = append(c.body, 0)[:len(c.body)]
		}
		n, err := resp.Body.Read(c.body[len(c.body):cap(c.body)])
		c.body = c.body[:len(c.body)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, nil, err
		}
	}
	return resp.StatusCode, c.body, nil
}
