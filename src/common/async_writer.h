// Double-buffered asynchronous appender over a stdio FILE*.
//
// The producer serializes into an in-memory buffer; a background thread
// fwrites full buffers while the producer keeps filling the other one.
// Buffering is bounded: once the producer has filled its buffer and the
// previous one is still being written, Append blocks — at most
// ~2 × buffer_cap bytes (plus one oversized record) are ever in flight, so a
// slow disk back-pressures the operator thread instead of growing the heap.
//
// Bytes reach the file in exactly the order they were appended, so the file
// contents are byte-identical to calling fwrite synchronously — the async
// provenance-sink suite pins this against bytes it serializes itself.
//
// Threading contract: Append/Flush are producer-thread-only (the owning
// operator's processing thread); the destructor runs after the producer is
// done with Append/Flush.
#ifndef GENEALOG_COMMON_ASYNC_WRITER_H_
#define GENEALOG_COMMON_ASYNC_WRITER_H_

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

namespace genealog {

class AsyncFileWriter {
 public:
  // Takes ownership of the open `file`. `buffer_cap` is the swap threshold
  // per buffer (tests shrink it to force many handoffs).
  explicit AsyncFileWriter(std::FILE* file, size_t buffer_cap = 256 * 1024);
  ~AsyncFileWriter();  // Flush(), joins the writer thread, closes the file
  AsyncFileWriter(const AsyncFileWriter&) = delete;
  AsyncFileWriter& operator=(const AsyncFileWriter&) = delete;

  // Appends `n` bytes after everything appended so far. May block on the
  // writer thread when both buffers are full (bounded buffering).
  void Append(const uint8_t* data, size_t n);

  // Blocks until every appended byte has reached the FILE* and fflush
  // returned — the clean end-of-stream semantics (ProvenanceSink OnFlush). A
  // failed fflush counts as a write error.
  void Flush();

  // True once an fwrite reported a short write or an fflush failed (disk
  // full, I/O error).
  bool write_error() const;

 private:
  void RunWriter();
  // Hands the active buffer to the writer thread, waiting for the previous
  // handoff to drain first.
  void SwapBuffers();

  std::FILE* const file_;
  const size_t buffer_cap_;

  // active_ is filled by the producer without holding mu_; it changes hands
  // only inside SwapBuffers. inflight_ belongs to the writer thread while
  // inflight_full_ is true, to the protocol otherwise.
  std::vector<uint8_t> active_;
  std::vector<uint8_t> inflight_;

  mutable std::mutex mu_;
  std::condition_variable producer_cv_;
  std::condition_variable writer_cv_;
  bool inflight_full_ = false;
  bool stop_ = false;
  bool write_error_ = false;

  std::thread writer_;  // started last, after all state is initialized
};

}  // namespace genealog

#endif  // GENEALOG_COMMON_ASYNC_WRITER_H_
