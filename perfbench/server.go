package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// server is one running fpsa-serve process bound to a loopback port.
type server struct {
	cmd  *exec.Cmd
	base string
	logs bytes.Buffer
	exit chan error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// startServer launches bin with args plus a free loopback -addr and
// returns once /healthz answers, with the time that took.
func startServer(ctx context.Context, bin string, args ...string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	s := &server{base: fmt.Sprintf("http://127.0.0.1:%d", port), exit: make(chan error, 1)}
	t0 := time.Now()
	s.cmd = exec.Command(bin, append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port)}, args...)...)
	s.cmd.Stdout = &s.logs
	s.cmd.Stderr = &s.logs
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() { s.exit <- s.cmd.Wait() }()
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		select {
		case err := <-s.exit:
			s.exit <- err
			return nil, 0, fmt.Errorf("fpsa-serve exited before ready (%v): %s", err, s.logs.String())
		case <-ctx.Done():
			s.kill()
			return nil, 0, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, 0, fmt.Errorf("fpsa-serve not ready after 60s: %s", s.logs.String())
		}
	}
}

// stop sends SIGTERM and requires a clean exit 0 within the drain window,
// so no server outlives the run.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		s.kill()
		return fmt.Errorf("signal fpsa-serve: %w", err)
	}
	select {
	case err := <-s.exit:
		if err != nil {
			return fmt.Errorf("fpsa-serve did not exit 0 after SIGTERM (%v): %s", err, s.logs.String())
		}
		return nil
	case <-time.After(20 * time.Second):
		s.kill()
		return fmt.Errorf("fpsa-serve still running 20s after SIGTERM")
	}
}

// kill is the last resort on error paths: SIGKILL and reap.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // the process may already be gone
	<-s.exit
}

// getJSON fetches path and decodes the JSON reply into v.
func (s *server) getJSON(client *http.Client, path string, v any) error {
	resp, err := client.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// post sends body to path and decodes a 200 reply into v; any other
// status is an error.
func (s *server) post(client *http.Client, path string, body []byte, v any) error {
	resp, err := client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, v)
}

// newClient is the load generator's client: at most conns keep-alive
// connections to the one server.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		},
	}
}
