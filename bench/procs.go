package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// buildBinaries compiles the system under test once per run. The go command
// decides staleness, so a second call with unchanged sources only relinks
// nothing and returns quickly.
func buildBinaries(ctx context.Context, root, binDir string) error {
	abs, err := filepath.Abs(binDir)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(abs, 0o755); err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", abs+string(filepath.Separator), "./cmd/gmqld", "./cmd/gmql")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %v\n%s", err, out)
	}
	return nil
}

// children tracks every process the benchmark starts so that each is killed
// and waited for on every exit path.
type children struct {
	mu    sync.Mutex
	procs map[*exec.Cmd]bool
}

func (c *children) add(cmd *exec.Cmd) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.procs == nil {
		c.procs = make(map[*exec.Cmd]bool)
	}
	c.procs[cmd] = true
}

// forget drops a child that has already been waited for.
func (c *children) forget(cmd *exec.Cmd) {
	c.mu.Lock()
	delete(c.procs, cmd)
	c.mu.Unlock()
}

// stop kills one child and waits until it has ended.
func (c *children) stop(cmd *exec.Cmd) {
	c.mu.Lock()
	tracked := c.procs[cmd]
	delete(c.procs, cmd)
	c.mu.Unlock()
	if !tracked {
		return
	}
	_ = cmd.Process.Kill() // the child may already have exited
	_ = cmd.Wait()         // reaps it; the kill makes the status an error
}

func (c *children) stopAll() {
	c.mu.Lock()
	var all []*exec.Cmd
	for cmd := range c.procs {
		all = append(all, cmd)
	}
	c.mu.Unlock()
	for _, cmd := range all {
		c.stop(cmd)
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// server is one running gmqld.
type server struct {
	cmd *exec.Cmd
	url string
	// bootWall is spawn to first healthy answer, which includes the load
	// of the whole repository.
	bootWall time.Duration
}

// startServer spawns gmqld over the repository and waits until /health
// answers. maxProcs > 0 pins the member's GOMAXPROCS.
func (c *children) startServer(ctx context.Context, bin, data, name string, maxProcs int) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-data", data, "-addr", addr, "-name", name)
	cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr
	cmd.Env = os.Environ()
	if maxProcs > 0 {
		cmd.Env = append(cmd.Env, fmt.Sprintf("GOMAXPROCS=%d", maxProcs))
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c.add(cmd)
	s := &server{cmd: cmd, url: "http://" + addr}
	hc := &http.Client{Timeout: time.Second}
	deadline := start.Add(30 * time.Second)
	for {
		resp, err := hc.Get(s.url + "/health")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.bootWall = time.Since(start)
				return s, nil
			}
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			c.stop(cmd)
			return nil, fmt.Errorf("gmqld %s on %s never became healthy: %v", name, addr, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// clockTick is the unit of the CPU times in /proc/<pid>/stat (USER_HZ, 100
// on every Linux platform Go supports).
const clockTick = 10 * time.Millisecond

// procCPU reads the user+system CPU time a live process has consumed.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ')'.
	rest := string(data[strings.LastIndexByte(string(data), ')')+1:])
	fields := strings.Fields(rest)
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// procStatusKB reads one kB-valued field (VmHWM, VmRSS) of a live process.
func procStatusKB(pid int, field string) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, field+":") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				return strconv.ParseInt(f[1], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// waitExited blocks until the started child has exited but leaves it a
// zombie, so that its /proc entry can still be read; cmd.Wait reaps it after.
func waitExited(cmd *exec.Cmd) error {
	const (
		pPid    = 1          // P_PID
		wExited = 0x00000004 // WEXITED
		wNoWait = 0x01000000 // WNOWAIT
	)
	var info [128]byte // siginfo_t; only the return code is used
	for {
		_, _, errno := syscall.Syscall6(syscall.SYS_WAITID, pPid, uintptr(cmd.Process.Pid),
			uintptr(unsafe.Pointer(&info[0])), wExited|wNoWait, 0, 0)
		if errno == 0 {
			return nil
		}
		if errno != syscall.EINTR {
			return fmt.Errorf("waitid: %w", errno)
		}
	}
}

// procIOBytes is the number of bytes a process has moved through read and
// write system calls (rchar + wchar of /proc/<pid>/io), page-cache hits
// included: what it asked storage for, whatever the device then had to do.
func procIOBytes(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 2 && (f[0] == "rchar:" || f[0] == "wchar:") {
			n, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("bad /proc/%d/io: %w", pid, err)
			}
			total += n
		}
	}
	return total, nil
}

// childUsage is the CPU time and peak resident set of an exited child.
func childUsage(cmd *exec.Cmd) (cpu time.Duration, maxRSSKB int64) {
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, ru.Maxrss
}

// dirBytes totals the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
