package main

import (
	"bytes"
	"hash/fnv"
	"io"
	"net/http"
	"time"
)

// client is one keep-alive connection to the daemon. Each load-generator
// goroutine owns one, so the connection count equals the goroutine count.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
	body bytes.Buffer
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

// do sends one request and reads the whole response into c.body. A
// transport error returns status 0.
func (c *client) do(method, path, query string, body []byte) int {
	url := c.base + path
	if query != "" {
		url += "?" + query
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0
	}
	return resp.StatusCode
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// bodyHash is FNV-64a, the hash loadgen's in-process target uses, so a
// served body and an in-process body compare by hash.
func bodyHash(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b) // a hash.Hash Write never returns an error
	return h.Sum64()
}
