package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildHaserve compiles the real cmd/haserve of the repo at root into dir. It
// runs once per benchmark process, outside every timer.
func buildHaserve(root, dir string) (string, error) {
	bin := filepath.Join(dir, "haserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/haserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building haserve: %v\n%s", err, out)
	}
	return bin, nil
}

// child is one spawned haserve process.
type child struct {
	cmd    *exec.Cmd
	addr   string
	out    bytes.Buffer
	exited chan struct{} // closed once Wait returned
}

// startShards execs one haserve per snapshot, default flags plus extra, and
// waits for every port file. On any failure the children already started are
// stopped before it returns.
func startShards(bin string, snaps []string, extra []string, dir string) ([]*child, error) {
	var kids []*child
	fail := func(err error) ([]*child, error) {
		stopAll(kids)
		return nil, err
	}
	portFiles := make([]string, len(snaps))
	for i, snap := range snaps {
		portFiles[i] = filepath.Join(dir, fmt.Sprintf("shard-%d.addr", i))
		if err := os.Remove(portFiles[i]); err != nil && !os.IsNotExist(err) {
			return fail(err)
		}
		args := append([]string{"-snapshot", snap, "-port-file", portFiles[i]}, extra...)
		c := &child{cmd: exec.Command(bin, args...), exited: make(chan struct{})}
		c.cmd.Stdout = &c.out
		c.cmd.Stderr = &c.out
		c.cmd.SysProcAttr = childProcAttr()
		if err := c.cmd.Start(); err != nil {
			return fail(fmt.Errorf("starting haserve: %w", err))
		}
		go func() {
			c.cmd.Wait()
			close(c.exited)
		}()
		kids = append(kids, c)
	}
	deadline := time.Now().Add(120 * time.Second)
	for i, c := range kids {
		for c.addr == "" {
			if data, err := os.ReadFile(portFiles[i]); err == nil && bytes.HasSuffix(data, []byte("\n")) {
				c.addr = strings.TrimSpace(string(data))
				break
			}
			select {
			case <-c.exited:
				return fail(fmt.Errorf("haserve shard %d exited before binding: %s", i, c.out.String()))
			case <-time.After(time.Millisecond):
			}
			if time.Now().After(deadline) {
				return fail(fmt.Errorf("haserve shard %d did not bind within 120s", i))
			}
		}
	}
	return kids, nil
}

// stop asks the child to exit with SIGTERM, kills it if it has not gone
// within 5 s, and returns once it has been waited for.
func (c *child) stop() {
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.exited:
	case <-time.After(5 * time.Second):
		c.cmd.Process.Kill()
		<-c.exited
	}
}

func stopAll(kids []*child) {
	for _, c := range kids {
		c.stop()
	}
}

func addrsOf(kids []*child) [][]string {
	out := make([][]string, len(kids))
	for i, c := range kids {
		out[i] = []string{c.addr}
	}
	return out
}

// statusKB reads one "Key:   N kB" line from /proc/<pid>/status; 0 where
// /proc is unavailable.
func statusKB(pid int, key string) int64 {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, key+":") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseInt(f[1], 10, 64)
				return kb
			}
		}
	}
	return 0
}

// statusMB sums one /proc status figure (VmHWM, the peak resident set, or
// VmRSS, the current one) over the children, in MiB.
func statusMB(kids []*child, key string) float64 {
	var kb int64
	for _, c := range kids {
		kb += statusKB(c.cmd.Process.Pid, key)
	}
	return float64(kb) / 1024
}
