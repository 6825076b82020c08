package bench

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// Header records where and on what a run was made: what the older
// BENCH_*.json records lack.
type Header struct {
	Workload         string  `json:"workload"`
	Seed             uint64  `json:"seed"`
	Seconds          float64 `json:"seconds"`
	CPUModel         string  `json:"cpu_model"`
	HardwareThreads  int     `json:"hardware_threads"` // processors the kernel lists
	Nproc            int     `json:"nproc"`            // processors this process may run on
	ServerGOMAXPROCS int     `json:"server_gomaxprocs"`
	ServerProcesses  int     `json:"server_processes"`
	ClientGOMAXPROCS int     `json:"client_gomaxprocs"`
	IngestConns      int     `json:"ingest_connections"`
	GoVersion        string  `json:"go_version"`
	Kernel           string  `json:"kernel"`
	DataDirFS        string  `json:"data_dir_fs"`
	Commit           string  `json:"commit"`
}

// Provenance fills the header for a run whose scratch directory is dir.
func Provenance(o Options, dir string) Header {
	w := o.Workload
	h := Header{
		Workload:         w.Name,
		Seed:             o.Seed,
		Seconds:          o.Seconds,
		CPUModel:         "unknown",
		Nproc:            runtime.NumCPU(),
		ServerGOMAXPROCS: serverGOMAXPROCS(w),
		ServerProcesses:  w.Peers,
		ClientGOMAXPROCS: runtime.GOMAXPROCS(0),
		IngestConns:      w.IngestConns,
		GoVersion:        runtime.Version(),
		Kernel:           "unknown",
		DataDirFS:        fsType(dir),
		Commit:           "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			name, value, _ := strings.Cut(sc.Text(), ":")
			switch strings.TrimSpace(name) {
			case "processor":
				h.HardwareThreads++
			case "model name":
				h.CPUModel = strings.TrimSpace(value)
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	// The driver's checkout is not a git repository; a developer's is.
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x794C7630: "overlayfs", 0x01021994: "tmpfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// String renders the header as the first lines of the report.
func (h Header) String() string {
	return fmt.Sprintf(
		"# workload=%s seed=%d seconds=%g commit=%s\n"+
			"# cpu=%q hardware_threads=%d nproc=%d kernel=%s go=%s data_dir_fs=%s\n"+
			"# servers=%d×GOMAXPROCS=%d client GOMAXPROCS=%d ingest_connections=%d (closed loop)",
		h.Workload, h.Seed, h.Seconds, h.Commit,
		h.CPUModel, h.HardwareThreads, h.Nproc, h.Kernel, h.GoVersion, h.DataDirFS,
		h.ServerProcesses, h.ServerGOMAXPROCS, h.ClientGOMAXPROCS, h.IngestConns)
}
