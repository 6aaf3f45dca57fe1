package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux ABI Go supports.
const clockTick = 100

// cpuSeconds returns user+sys CPU seconds a process has used.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, err
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, err
	}
	return float64(ut+st) / clockTick, nil
}

// peakRSSMB returns a process's VmHWM in MiB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cpuAll samples every node's CPU seconds.
func cpuAll(pids []int) ([]float64, error) {
	out := make([]float64, len(pids))
	for i, p := range pids {
		v, err := cpuSeconds(p)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// fsTypes names the statfs magic numbers of the filesystems a data dir
// is likely to sit on.
var fsTypes = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x2FC12FC1: "zfs",
	0x65735546: "fuse",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	if name, ok := fsTypes[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// fileSHA256 identifies the avnode build under test.
func fileSHA256(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// stamp describes the machine and build a report was measured on.
type stamp struct {
	NumCPU         int    `json:"num_cpu"`
	Nproc          string `json:"nproc"`
	ClientMaxProcs int    `json:"client_gomaxprocs"`
	NodeMaxProcs   string `json:"node_gomaxprocs"`
	GoVersion      string `json:"go_version"`
	AvnodeSHA256   string `json:"avnode_sha256"`
	Fsync          string `json:"fsync"`
	DataFS         string `json:"data_fs"`
	Clients        int    `json:"clients"`
	AvnodeFlags    string `json:"avnode_flags"`
}

func newStamp(bin, dataDir string, c *cluster, clients int) stamp {
	nproc := "unknown"
	if out, err := exec.Command("nproc").Output(); err == nil {
		nproc = strings.TrimSpace(string(out))
	}
	// Nodes inherit this process's environment; without GOMAXPROCS set
	// the Go runtime uses the CPU count (it ignores container quotas
	// before Go 1.25).
	nodeProcs := os.Getenv("GOMAXPROCS")
	if nodeProcs == "" {
		nodeProcs = strconv.Itoa(runtime.NumCPU()) + " (default)"
	}
	return stamp{
		NumCPU:         runtime.NumCPU(),
		Nproc:          nproc,
		ClientMaxProcs: runtime.GOMAXPROCS(0),
		NodeMaxProcs:   nodeProcs,
		GoVersion:      runtime.Version(),
		AvnodeSHA256:   fileSHA256(bin),
		Fsync:          "real: avnode -dir has no fsync switch",
		DataFS:         fsType(dataDir),
		Clients:        clients,
		AvnodeFlags:    c.flagString(),
	}
}
