package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one live stardust-server child process.
type serverProc struct {
	cmd      *exec.Cmd
	httpAddr string
	tcpAddr  string
	done     chan struct{} // closed once the process has been waited for
	logFile  *os.File
}

// startServer launches the server on ephemeral loopback ports and waits
// until both listeners are up and /readyz answers 200.
func startServer(bin string, args []string, logPath string) (*serverProc, error) {
	lf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	full := append([]string{"-addr", "127.0.0.1:0", "-tcp-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(bin, full...)
	cmd.Stdout = lf
	pr, err := cmd.StderrPipe()
	if err != nil {
		lf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, done: make(chan struct{}), logFile: lf}
	addrs := make(chan [2]string, 1)
	go func() {
		// The server logs each listener's bound address; everything it
		// writes is copied to the run's log file.
		var httpAddr, tcpAddr string
		sent := false
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(lf, line)
			if a, ok := listenAddr(line, "stardust-server listening on "); ok {
				httpAddr = a
			}
			if a, ok := listenAddr(line, "binary wire protocol listening on "); ok {
				tcpAddr = a
			}
			if !sent && httpAddr != "" && tcpAddr != "" {
				addrs <- [2]string{httpAddr, tcpAddr}
				sent = true
			}
		}
		io.Copy(lf, pr)
		cmd.Wait()
		close(p.done)
	}()
	select {
	case a := <-addrs:
		p.httpAddr, p.tcpAddr = a[0], a[1]
	case <-p.done:
		lf.Close()
		return nil, fmt.Errorf("server exited during start-up (log: %s)", logPath)
	case <-time.After(60 * time.Second):
		p.kill()
		return nil, fmt.Errorf("server did not report its listeners within 60s (log: %s)", logPath)
	}
	hc := newHTTPClient()
	for deadline := time.Now().Add(60 * time.Second); ; {
		if resp, err := hc.Get(p.url("/readyz")); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, fmt.Errorf("server not ready within 60s (log: %s)", logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
	hc.CloseIdleConnections()
	return p, nil
}

func listenAddr(line, marker string) (string, bool) {
	i := strings.Index(line, marker)
	if i < 0 {
		return "", false
	}
	rest := line[i+len(marker):]
	if j := strings.IndexByte(rest, ' '); j >= 0 {
		rest = rest[:j]
	}
	return rest, true
}

func (p *serverProc) url(path string) string { return "http://" + p.httpAddr + path }

// kill sends SIGKILL (no drain, no final snapshot) and waits for exit.
func (p *serverProc) kill() {
	p.cmd.Process.Kill()
	<-p.done
	p.logFile.Close()
}

// stop asks for a graceful shutdown and waits; it escalates to SIGKILL
// after 30 seconds.
func (p *serverProc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(30 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
	p.logFile.Close()
}

// peakRSSMiB reads the process's high-water resident set (VmHWM).
func (p *serverProc) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// newHTTPClient returns a client that keeps at most one connection to the
// server, so the closed loop never holds more than two (this one plus the
// TCP ingest connection).
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// httpJSON performs one request and decodes a 200 JSON response into out.
func httpJSON(hc *http.Client, method, url string, body any, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, strings.TrimSpace(string(b)))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(b, out); err != nil {
		return fmt.Errorf("%s %s: decoding: %w", method, url, err)
	}
	return nil
}

// promCounters fetches GET /metricsz and returns every unlabeled or
// class-labeled sample keyed by its series text (name plus labels).
func promCounters(hc *http.Client, base string) (map[string]float64, error) {
	resp, err := hc.Get(base + "/metricsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metricsz: %s", resp.Status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
