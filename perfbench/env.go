package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// topology is stamped on every result: the benchmark measures the
// system's own overhead, not a network.
const topology = "loopback, client and server in one process"

// tmpfsMagic is the statfs type of tmpfs, where fsync is free and a WAL
// measurement would be meaningless.
const tmpfsMagic = 0x01021994

// fsNames maps common statfs magic numbers to filesystem names.
var fsNames = map[int64]string{
	0xEF53:     "ext4",
	tmpfsMagic: "tmpfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794C7630: "overlayfs",
	0x2FC12FC1: "zfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
}

// environment is the stamp printed with every result.
type environment struct {
	GoVersion  string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	WALFS      string `json:"wal_fs"`
	Topology   string `json:"topology"`
}

func stampEnvironment(walDir string) environment {
	fs, _, err := fsType(walDir)
	if err != nil {
		fs = "unknown: " + err.Error()
	}
	return environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		WALFS:      fs,
		Topology:   topology,
	}
}

// fsType names the filesystem holding dir and reports whether it is tmpfs.
func fsType(dir string) (name string, tmpfs bool, err error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "", false, fmt.Errorf("statfs %s: %w", dir, err)
	}
	magic := int64(st.Type)
	name, ok := fsNames[magic]
	if !ok {
		name = fmt.Sprintf("0x%x", magic)
	}
	return name, magic == tmpfsMagic, nil
}

// cpuTicks reads the host-wide CPU time counters of /proc/stat: all
// ticks, and the ticks the hypervisor stole from this machine's vCPUs.
func cpuTicks() (total, steal uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text()) // cpu user nice system idle iowait irq softirq steal ...
	for i, field := range fields[1:] {
		n, err := strconv.ParseUint(field, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
