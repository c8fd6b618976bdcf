package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"sync/atomic"
	"time"
)

// client is the benchmark's HTTP side, standing in for cmd/mecload: one
// keep-alive transport capped at conns connections to the daemon. Every
// request body is encoded before the timed phase starts, so the timed loop
// only sends bytes and reads replies.
type client struct {
	hc    *http.Client
	dials atomic.Int64
}

func newClient(conns int) *client {
	c := &client{}
	dialer := &net.Dialer{Timeout: 10 * time.Second}
	c.hc = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				c.dials.Add(1)
				return dialer.DialContext(ctx, network, addr)
			},
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
		},
	}
	return c
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one completed request: its status and body, when it was sent,
// when the first response byte arrived (sampled requests only), and when
// the body had been read.
type reply struct {
	status    int
	body      []byte
	sent      time.Time
	firstByte time.Time
	read      time.Time
}

// secs is the client-observed latency: send to body read.
func (r reply) secs() float64 { return r.read.Sub(r.sent).Seconds() }

// send issues one request and reads the whole reply. With traceparent set
// the request carries it, so the daemon records spans under that trace,
// and httptrace stamps the first response byte.
func (c *client) send(method, url string, body []byte, traceparent string) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var r reply
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotFirstResponseByte: func() { r.firstByte = time.Now() },
		}))
	}
	r.sent = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	r.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.read = time.Now()
	if err != nil {
		return reply{}, fmt.Errorf("read %s %s: %w", method, url, err)
	}
	r.status = resp.StatusCode
	return r, nil
}

// get fetches url and requires 200.
func (c *client) get(url string) ([]byte, error) {
	r, err := c.send(http.MethodGet, url, nil, "")
	if err != nil {
		return nil, err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, r.status, r.body)
	}
	return r.body, nil
}

// admittedID decodes the provider ID from a 201 admission reply.
func admittedID(body []byte) (int64, error) {
	var ar struct {
		ID int64 `json:"id"`
	}
	if err := json.Unmarshal(body, &ar); err != nil {
		return 0, fmt.Errorf("decode admission: %w", err)
	}
	return ar.ID, nil
}
