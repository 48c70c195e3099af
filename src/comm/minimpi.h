#ifndef minimpi_h
#define minimpi_h

/// @file minimpi.h
/// A message-passing substrate with MPI semantics where ranks are threads
/// of one process. This stands in for the MPI library used by Newton++ and
/// SENSEI on Perlmutter: buffered point-to-point sends with (source, tag)
/// matching, and the collectives the coupled codes need (barrier, bcast,
/// reduce, allreduce, gather, allgather, and a sparse allreduce of grid
/// records). Message volume and collective fan-in charge virtual time,
/// and collectives align the participants' virtual clocks, so
/// rank-parallel campaigns produce meaningful virtual timelines.
///
/// Ranks are placed on virtual nodes round-robin in blocks of
/// `ranksPerNode`; each rank thread is bound to its node
/// (vp::Platform::SetThisNode) before the user function runs, matching how
/// SLURM places MPI ranks on Perlmutter nodes.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace minimpi
{

/// Reduction operators.
enum class Op : int
{
  Sum = 0,
  Min,
  Max
};

class Context;

/// A grid record is `Ops.size()` segments of `Bins` doubles each, segment
/// g reduced across ranks with Ops[g]. Its compact form, written by
/// PackCompact, is an occupancy bitmap of BitmapWords() u64 words (bin i
/// is bit i % 64 of word i / 64) followed by `cap` slots of
/// Ops.size() doubles: the values of each occupied bin, in bin order,
/// then zeros. A bin is unoccupied when every segment holds its
/// operator's identity bit for bit (+0.0 for Sum, +inf for Min, -inf for
/// Max), so leaving it out loses nothing.
struct CompactShape
{
  std::size_t Bins = 0;
  std::vector<Op> Ops; ///< one per segment

  std::size_t Grids() const noexcept { return this->Ops.size(); }
  std::size_t BitmapWords() const noexcept { return (this->Bins + 63) / 64; }

  /// Size of a compact record with `cap` slots.
  std::size_t Bytes(std::size_t cap) const noexcept
  {
    return 8 * this->BitmapWords() + cap * this->Grids() * sizeof(double);
  }
};

/// Write the compact form of the dense record `dense` (Grids() x Bins
/// doubles, segment-major) into `out` (shape.Bytes(cap) bytes, aligned
/// for double, like every compact record). Throws std::length_error
/// when more than `cap` bins are occupied.
void PackCompact(const CompactShape &shape, const double *dense,
                 std::size_t cap, void *out);

/// Write every bin the bitmap of `compact` names back to its segment's
/// identity in `dense`. Run after PackCompact from `dense` into
/// `compact`, it leaves `dense` holding the identity in every bin, bit
/// for bit, since the bins the bitmap leaves out already did.
void ResetCompacted(const CompactShape &shape, const void *compact,
                    double *dense);

/// Expand one compact record of capacity `cap` into the dense record
/// (absent bins get the identities), as AllreduceCompact's reduction
/// does on one rank, and as a caller without a communicator does. Throws
/// std::runtime_error when the bitmap names more than `cap` bins.
void UnpackCompact(const CompactShape &shape, const void *compact,
                   std::size_t cap, double *dense);

/// As above, with segment g written to `segments[g]` (Bins doubles each)
/// instead of a dense record.
void UnpackCompact(const CompactShape &shape, const void *compact,
                   std::size_t cap, double *const *segments);

/// One record of an AllreduceCompact: its shape and its compact form of
/// capacity `Cap` (PackCompact).
struct CompactRecord
{
  const CompactShape *Shape = nullptr;
  const void *Compact = nullptr;
  std::size_t Cap = 0;
};

/// Per-rank handle to the communicator. Valid only inside the function
/// passed to Run. All methods are callable concurrently from their
/// respective rank threads.
class Communicator
{
public:
  /// This rank's id in [0, Size).
  int Rank() const noexcept { return this->Rank_; }

  /// Number of ranks.
  int Size() const noexcept;

  /// Virtual node this rank is bound to.
  int Node() const noexcept;

  /// Ranks per node used at launch.
  int RanksPerNode() const noexcept;

  /// Duplicate the communicator (collective: every rank must call the
  /// same number of times, in the same order). The duplicate has
  /// independent collective state and mailboxes, so e.g. an asynchronous
  /// in situ thread can run collectives without interleaving with the
  /// simulation's — the reason real SENSEI duplicates MPI_COMM_WORLD.
  Communicator Dup();

  /// Partition the communicator by color (collective, MPI_Comm_split
  /// semantics): ranks passing the same color form a new communicator,
  /// renumbered 0..k-1 in parent-rank order. Used by the in transit
  /// transport to carve simulation and endpoint groups out of the world.
  Communicator Split(int color);

  // --- point to point ------------------------------------------------------

  /// Process-wide cap on a single message. Real MPI implementations
  /// narrow byte counts through `int` and silently corrupt >2 GiB
  /// messages; here Send refuses them loudly (std::length_error) and
  /// SendChunked/RecvChunked split them. Default (1<<31)-1 bytes; tests
  /// lower it to exercise the chunked path without giant allocations.
  static void SetMaxMessageBytes(std::size_t bytes);
  static std::size_t GetMaxMessageBytes() noexcept;

  /// Buffered send: copies `bytes` of `data` into dest's mailbox and
  /// returns. Never blocks (infinite buffering, like an MPI_Bsend).
  /// Throws std::length_error when `bytes` exceeds GetMaxMessageBytes()
  /// — use SendChunked for payloads of unbounded size.
  void Send(int dest, int tag, const void *data, std::size_t bytes);

  /// Receive a message from (src, tag); blocks until one arrives.
  /// Messages from the same (source, tag) arrive in the order they were
  /// sent. Returns the payload.
  std::vector<std::uint8_t> Recv(int src, int tag);

  /// Timed receive: wait at most `timeoutSeconds` of real time for a
  /// message from (src, tag). Returns false on timeout with nothing
  /// consumed — an error return, not an abort, so a service can probe a
  /// possibly-dead peer and keep running; the same (src, tag) can be
  /// received again later. Negative timeouts mean wait forever.
  bool Recv(int src, int tag, std::vector<std::uint8_t> &out,
            double timeoutSeconds);

  /// Send a payload of any size as a 16-byte header frame (u64 total
  /// bytes, u64 chunk count, little endian) followed by chunk frames of
  /// at most GetMaxMessageBytes() each, all on `tag`. Pair with
  /// RecvChunked.
  void SendChunked(int dest, int tag, const void *data, std::size_t bytes);

  /// Receive a payload sent with SendChunked, reassembling the chunk
  /// frames. Throws std::runtime_error on a malformed chunk stream; a
  /// header whose chunk count exceeds its total, or whose total exceeds
  /// chunks x GetMaxMessageBytes(), is rejected before any allocation,
  /// and the buffer grows with the chunks that arrive.
  std::vector<std::uint8_t> RecvChunked(int src, int tag);

  /// Timed chunked receive. Returns false when the 16-byte chunk
  /// header does not arrive within `timeoutSeconds` (nothing consumed;
  /// the transfer can still be received later). Once the header has
  /// been consumed the transfer is committed: a chunk missing its
  /// deadline mid-stream is a short read and throws std::runtime_error
  /// — the stream cannot be resynchronized. Negative timeouts wait
  /// forever.
  bool RecvChunked(int src, int tag, std::vector<std::uint8_t> &out,
                   double timeoutSeconds);

  /// Receive into a typed vector.
  template <typename T>
  std::vector<T> RecvAs(int src, int tag)
  {
    std::vector<std::uint8_t> raw = this->Recv(src, tag);
    if (raw.size() % sizeof(T))
      throw std::runtime_error("minimpi::RecvAs: size mismatch");
    std::vector<T> out(raw.size() / sizeof(T));
    if (!raw.empty()) // an empty vector's data() may be null
      std::memcpy(out.data(), raw.data(), raw.size());
    return out;
  }

  /// Send a typed vector.
  template <typename T>
  void SendVec(int dest, int tag, const std::vector<T> &v)
  {
    this->Send(dest, tag, v.data(), v.size() * sizeof(T));
  }

  // --- collectives -----------------------------------------------------------

  /// Block until all ranks arrive; aligns virtual clocks.
  void Barrier();

  /// Broadcast n elements from root to all ranks.
  template <typename T>
  void Bcast(T *data, std::size_t n, int root)
  {
    this->BcastBytes(data, n * sizeof(T), root);
  }

  /// All ranks end with the elementwise reduction of everyone's data.
  template <typename T>
  void Allreduce(T *data, std::size_t n, Op op)
  {
    this->AllreduceTyped(data, n, op, TypeTag<T>());
  }

  /// Rank `root` ends with the elementwise reduction; other ranks' data is
  /// unchanged.
  template <typename T>
  void Reduce(T *data, std::size_t n, Op op, int root)
  {
    this->AllreduceTyped(data, n, op, TypeTag<T>());
    // non-roots discard: with threads-as-ranks the allreduce result is
    // simply not used off-root; semantics match MPI_Reduce for the root.
    (void)root;
  }

  /// Sparse allreduce of grid records in one collective. Every rank
  /// passes the same number of records, record i of one shape on every
  /// rank, each in its compact form (PackCompact) with a capacity that
  /// may differ across ranks. Each rank checks all of its records'
  /// bitmaps against their capacities, and throws std::runtime_error,
  /// before it enters. Then it visits the records in order:
  /// each(i, reduced, held) gets record i's reduction as a compact record
  /// of its shape holding `held` bins, the union of the ranks' bitmaps.
  /// Each bin folds the ranks in rank order with its segment's operator,
  /// an absent bin contributing the identity, so the UnpackCompact of a
  /// reduction is bit-identical to Allreduce over the ranks' dense
  /// records. `reduced` is valid only during the call, and `each` must
  /// not enter a collective on this communicator. Priced from the
  /// capacities alone, never the contents, as one recursive-doubling
  /// exchange of R = ceil(log2(P)) rounds: round k charges one
  /// MessageLatency plus, summed over the records, the bitmap and
  /// min(Bins, the largest sum of caps over an aligned group of 2^(k-1)
  /// ranks) slots, over MessageBandwidth. On one rank it is a host copy
  /// of every record's bitmap and min(Bins, cap) slots, at bytes /
  /// H2HBandwidth.
  void AllreduceCompact(
    const std::vector<CompactRecord> &records,
    const std::function<void(std::size_t, const void *, std::size_t)> &each);

  /// Gather n elements from every rank to root (root gets Size()*n
  /// elements in rank order; other ranks get an empty vector).
  template <typename T>
  std::vector<T> Gather(const T *data, std::size_t n, int root)
  {
    std::vector<std::uint8_t> raw =
      this->GatherBytes(data, n * sizeof(T), root);
    std::vector<T> out(raw.size() / sizeof(T));
    if (!raw.empty()) // an empty vector's data() may be null
      std::memcpy(out.data(), raw.data(), raw.size());
    return out;
  }

  /// Allgather: every rank gets Size()*n elements in rank order.
  template <typename T>
  std::vector<T> Allgather(const T *data, std::size_t n)
  {
    std::vector<std::uint8_t> raw = this->AllgatherBytes(data, n * sizeof(T));
    std::vector<T> out(raw.size() / sizeof(T));
    if (!raw.empty()) // an empty vector's data() may be null
      std::memcpy(out.data(), raw.data(), raw.size());
    return out;
  }

private:
  friend class Context;
  friend double Run(const struct LaunchOptions &,
                    const std::function<void(Communicator &)> &);
  Communicator(Context *ctx, int rank) : Ctx_(ctx), Rank_(rank) {}

  template <typename T>
  struct TypeTag
  {
  };

  void BcastBytes(void *data, std::size_t bytes, int root);
  std::vector<std::uint8_t> GatherBytes(const void *data, std::size_t bytes,
                                        int root);
  std::vector<std::uint8_t> AllgatherBytes(const void *data,
                                           std::size_t bytes);

  void AllreduceTyped(double *data, std::size_t n, Op op, TypeTag<double>);
  void AllreduceTyped(float *data, std::size_t n, Op op, TypeTag<float>);
  void AllreduceTyped(int *data, std::size_t n, Op op, TypeTag<int>);
  void AllreduceTyped(long long *data, std::size_t n, Op op,
                      TypeTag<long long>);
  void AllreduceTyped(std::size_t *data, std::size_t n, Op op,
                      TypeTag<std::size_t>);

  Context *Ctx_ = nullptr;
  int Rank_ = 0;
  int DupCount_ = 0; ///< per-rank count of Dup calls for matching
};

/// Launch options for a rank-parallel region.
struct LaunchOptions
{
  int Ranks = 1;        ///< number of MPI ranks (threads)
  int RanksPerNode = 0; ///< 0 = all on node 0

  /// Deterministic cooperative rank scheduling: exactly one rank thread
  /// executes at a time, and whenever the running rank blocks (in a
  /// collective or an untimed Recv) the token passes to the
  /// lowest-numbered runnable rank. Virtual time on shared resources
  /// (device timelines, host cores) then no longer depends on the OS
  /// thread schedule, so two runs of the same workload produce
  /// bit-identical virtual timings — what the campaign auto-tuner needs
  /// to score candidate configurations reproducibly. Finite-timeout
  /// receives (real-time semantics) opt out of the token and keep their
  /// wall-clock behaviour.
  ///
  /// Rank functions must block only inside minimpi (collectives and
  /// untimed receives): a real join outside it — e.g. a threaded
  /// execution-engine region whose completion depends on another rank's
  /// future submissions — holds the token across the wait and deadlocks
  /// the cooperative schedule. Run with the serial execution engine.
  bool Lockstep = false;
};

/// Run `fn(comm)` on `opts.Ranks` rank threads. Each rank's virtual clock
/// starts at the caller's current virtual time; on return the caller's
/// clock has advanced to the max of the ranks' final times. Exceptions
/// thrown by rank functions are rethrown here (the first one, by rank
/// order). Returns the maximum final virtual time across ranks.
double Run(const LaunchOptions &opts,
           const std::function<void(Communicator &)> &fn);

/// Convenience overload: `ranks` ranks, all on node 0.
double Run(int ranks, const std::function<void(Communicator &)> &fn);

} // namespace minimpi

#endif
