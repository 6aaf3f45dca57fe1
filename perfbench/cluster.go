package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const numSites = 3

// node is one avnode process. It is stopped only through its PID.
type node struct {
	id     int
	dir    string // -dir data directory
	log    string // stdout+stderr of every incarnation, appended
	peer   string // inter-site listen address
	client string // line-protocol address
	admin  string // admin HTTP address (used only when the cluster is traced)

	cmd  *exec.Cmd
	done chan struct{} // closed when the process has been reaped
}

// cluster is three avnode processes on loopback with durable dirs.
type cluster struct {
	bin    string
	dir    string
	flags  []string // workload flags, identical on every node
	traced bool     // start with -admin and a trace ring
	nodes  [numSites]*node
}

// traceBuf sizes each node's span ring: large enough to hold the last
// few seconds of a window, which is the sample the stage breakdown uses.
const traceBuf = 32768

// freePorts reserves n distinct loopback ports by binding them all at
// once and releasing them together.
func freePorts(n int) ([]string, error) {
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve loopback port: %w", err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// newCluster lays out a cluster under dir with fresh ports; nothing runs
// until start.
func newCluster(bin, dir string, flags []string) (*cluster, error) {
	ports, err := freePorts(3 * numSites)
	if err != nil {
		return nil, err
	}
	c := &cluster{bin: bin, dir: dir, flags: flags}
	for i := range c.nodes {
		c.nodes[i] = &node{
			id:     i,
			dir:    filepath.Join(dir, fmt.Sprintf("s%d", i)),
			log:    filepath.Join(dir, fmt.Sprintf("s%d.log", i)),
			peer:   ports[i],
			client: ports[numSites+i],
			admin:  ports[2*numSites+i],
		}
	}
	return c, nil
}

// args is node n's full avnode command line.
func (c *cluster) args(n *node) []string {
	var peers []string
	for _, p := range c.nodes {
		if p != n {
			peers = append(peers, fmt.Sprintf("%d=%s", p.id, p.peer))
		}
	}
	a := []string{
		"-id", strconv.Itoa(n.id),
		"-listen", n.peer,
		"-peers", strings.Join(peers, ","),
		"-client", n.client,
		"-dir", n.dir,
		"-persist-av",
	}
	a = append(a, c.flags...)
	if c.traced {
		a = append(a, "-admin", n.admin, "-trace-buf", strconv.Itoa(traceBuf))
	}
	return a
}

// flagString renders the avnode flags common to all nodes, for the
// environment stamp.
func (c *cluster) flagString() string {
	a := []string{"-dir <run>/sN", "-persist-av"}
	a = append(a, c.flags...)
	if c.traced {
		a = append(a, "-admin <port>", "-trace-buf", strconv.Itoa(traceBuf))
	}
	return strings.Join(a, " ")
}

// start spawns all three nodes and returns once each accepts clients
// (avnode opens its client port only after seeding the catalog). The
// returned duration runs from the first spawn to the last accept.
func (c *cluster) start() (time.Duration, error) {
	t0 := time.Now()
	for _, n := range c.nodes {
		if err := c.spawn(n); err != nil {
			c.kill()
			return 0, err
		}
	}
	for _, n := range c.nodes {
		if err := n.waitUp(3 * time.Minute); err != nil {
			c.kill()
			return 0, err
		}
	}
	return time.Since(t0), nil
}

func (c *cluster) spawn(n *node) error {
	logf, err := os.OpenFile(n.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("open node log: %w", err)
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(c.bin, c.args(n)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A node must not outlive the benchmark, even when the benchmark
	// itself is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start avnode %d: %w", n.id, err)
	}
	n.cmd, n.done = cmd, make(chan struct{})
	go func(done chan struct{}) {
		cmd.Wait() //nolint:errcheck // exit status is irrelevant; SIGKILL is how nodes stop
		close(done)
	}(n.done)
	return nil
}

// waitUp polls the client port until it accepts a connection.
func (n *node) waitUp(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		select {
		case <-n.done:
			return fmt.Errorf("avnode %d exited during start-up:\n%s", n.id, tail(n.log, 20))
		default:
		}
		conn, err := net.DialTimeout("tcp", n.client, 100*time.Millisecond)
		if err == nil {
			conn.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("avnode %d not accepting clients after %v:\n%s", n.id, limit, tail(n.log, 20))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill SIGKILLs every running node by PID and waits until each is
// reaped. Safe to call repeatedly.
func (c *cluster) kill() {
	for _, n := range c.nodes {
		if n.cmd == nil || n.cmd.Process == nil {
			continue
		}
		select {
		case <-n.done:
		default:
			if err := n.cmd.Process.Signal(syscall.SIGKILL); err != nil && !errors.Is(err, os.ErrProcessDone) {
				fmt.Fprintf(os.Stderr, "perfbench: kill avnode %d: %v\n", n.id, err)
			}
			<-n.done
		}
		n.cmd = nil
	}
}

// pids returns the running nodes' PIDs in site order.
func (c *cluster) pids() []int {
	out := make([]int, 0, numSites)
	for _, n := range c.nodes {
		if n.cmd != nil && n.cmd.Process != nil {
			out = append(out, n.cmd.Process.Pid)
		}
	}
	return out
}

// tail returns the last n lines of a file, for error reports.
func tail(path string, n int) string {
	f, err := os.Open(path)
	if err != nil {
		return err.Error()
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines = append(lines, sc.Text())
		if len(lines) > n {
			lines = lines[1:]
		}
	}
	return strings.Join(lines, "\n")
}
