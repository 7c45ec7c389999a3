/**
 * Measuring program of the end-to-end benchmark (see README.md).
 *
 *   perfbench_run --workload <name> --data <directory> --seconds <s>
 *                 --trace <0|1> [--spawn-ns <CLOCK_MONOTONIC ns>]
 *
 * Runs one workload on inputs that perfbench_gen wrote to <directory> and
 * prints one JSON object as its last line of standard output. With
 * --trace 0 the object carries the end-to-end metrics, measured with the
 * library's telemetry off; with --trace 1 it carries the per-layer metrics
 * of a traced phase that follows an untraced phase of the same operations.
 *
 * Every decompression is checked against the generator's record (length
 * and zlib crc32 of the raw bytes) and every served range against the raw
 * file; any mismatch makes the program exit non-zero.
 *
 * The library is driven only through its public entry points:
 * formats::makeDecompressor / Decompressor, ParallelGzipReader,
 * serve::Server, and the telemetry switches, registry and trace collector.
 */

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>
#include <zlib.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "formats/Formats.hpp"
#include "io/StandardFileReader.hpp"
#include "serve/Server.hpp"
#include "telemetry/Registry.hpp"
#include "telemetry/Telemetry.hpp"
#include "telemetry/Trace.hpp"

using namespace rapidgzip;

namespace {

/* ------------------------------------------------------------------ */
/* small helpers                                                       */

[[nodiscard]] std::uint64_t
nowNs()
{
    /* steady_clock is CLOCK_MONOTONIC, the clock --spawn-ns is taken from */
    return telemetry::nowNs();
}

[[nodiscard]] double
seconds( std::uint64_t ns )
{
    return static_cast<double>( ns ) / 1e9;
}

[[nodiscard]] double
median( std::vector<double> values )
{
    if ( values.empty() ) {
        return 0;
    }
    std::sort( values.begin(), values.end() );
    const auto n = values.size();
    return n % 2 == 1 ? values[n / 2] : ( values[n / 2 - 1] + values[n / 2] ) / 2;
}

/** Nearest-rank percentile of @p sorted (ascending). */
[[nodiscard]] double
nearestRank( const std::vector<double>& sorted, double fraction )
{
    if ( sorted.empty() ) {
        return 0;
    }
    const auto rank = static_cast<std::size_t>( std::ceil( fraction * static_cast<double>( sorted.size() ) ) );
    return sorted[std::min( sorted.size(), std::max<std::size_t>( rank, 1 ) ) - 1];
}

/** Process high-water mark of resident memory (VmHWM), in MiB. */
[[nodiscard]] double
peakRssMiB()
{
    std::ifstream status( "/proc/self/status" );
    std::string line;
    while ( std::getline( status, line ) ) {
        if ( line.rfind( "VmHWM:", 0 ) == 0 ) {
            return std::strtod( line.c_str() + 6, nullptr ) / 1024.0;
        }
    }
    return 0;
}

class CheckFailed : public std::runtime_error
{
public:
    using std::runtime_error::runtime_error;
};

void
check( bool condition, const std::string& what )
{
    if ( !condition ) {
        throw CheckFailed( what );
    }
}

struct Expected
{
    std::size_t length{ 0 };
    std::uint32_t crc{ 0 };
};

/** The generator's record: "<file> <raw length> <raw crc32>" per line. */
[[nodiscard]] std::map<std::string, Expected>
readRecord( const std::string& directory )
{
    std::ifstream file( directory + "/record.txt" );
    std::map<std::string, Expected> records;
    std::string name;
    Expected expected;
    while ( file >> name >> expected.length >> expected.crc ) {
        records[name] = expected;
    }
    check( !records.empty(), "no generator record in " + directory );
    return records;
}

class Metrics
{
public:
    void
    set( const std::string& name, double value, const std::string& unit )
    {
        m_values[name] = { value, unit };
    }

    [[nodiscard]] std::string
    json() const
    {
        std::string out = "{";
        for ( const auto& [name, entry] : m_values ) {
            char value[64];
            std::snprintf( value, sizeof( value ), "%.9g", std::isfinite( entry.first ) ? entry.first : 0.0 );
            out += ( out.size() > 1 ? ", \"" : "\"" ) + name + "\": {\"value\": " + value
                   + ", \"unit\": \"" + entry.second + "\"}";
        }
        return out + "}";
    }

private:
    std::map<std::string, std::pair<double, std::string> > m_values;
};

/* ------------------------------------------------------------------ */
/* trace fold                                                          */

struct FoldedSpan
{
    std::size_t count{ 0 };
    std::uint64_t totalNs{ 0 };
    std::uint64_t selfNs{ 0 };
    std::map<std::uint32_t, bool> threads;
};

struct TraceFold
{
    std::map<std::string, FoldedSpan> spans;
    std::uint64_t dropped{ 0 };
    std::size_t partialOverlaps{ 0 };
};

/**
 * Drain the in-memory span rings once and fold them per span name into
 * count, total and self time (duration minus the time covered by direct
 * children on the same thread). Parses the collector's Chrome trace JSON
 * with a scanner of its own rather than the library's parser. Also counts
 * spans that partly overlap another span on their thread — by construction
 * (RAII spans) there must be none.
 */
[[nodiscard]] TraceFold
foldTrace()
{
    std::ostringstream stream;
    telemetry::TraceCollector::instance().drainJson( stream );
    const auto json = stream.str();

    struct Event
    {
        std::string name;
        std::int64_t beginNs;
        std::int64_t endNs;
    };
    std::map<std::uint32_t, std::vector<Event> > threads;
    TraceFold fold;

    const auto numberAfter = [&json] ( std::size_t from, const char* key ) {
        const auto at = json.find( key, from );
        check( at != std::string::npos, std::string( "trace event without " ) + key );
        return std::strtod( json.c_str() + at + std::strlen( key ), nullptr );
    };
    if ( const auto at = json.find( "\"droppedSpans\":" ); at != std::string::npos ) {
        fold.dropped = static_cast<std::uint64_t>( numberAfter( at, "\"droppedSpans\":" ) );
    }
    for ( auto at = json.find( "{\"name\":\"" ); at != std::string::npos;
          at = json.find( "{\"name\":\"", at + 1 ) ) {
        const auto nameBegin = at + 9;
        const auto nameEnd = json.find( '"', nameBegin );
        const auto ts = std::llround( numberAfter( at, "\"ts\":" ) * 1000.0 );
        const auto dur = std::llround( numberAfter( at, "\"dur\":" ) * 1000.0 );
        const auto tid = static_cast<std::uint32_t>( numberAfter( at, "\"tid\":" ) );
        threads[tid].push_back( { json.substr( nameBegin, nameEnd - nameBegin ), ts, ts + dur } );
    }

    for ( auto& [tid, events] : threads ) {
        /* parents first: earlier begin, and on equal begin the longer span */
        std::sort( events.begin(), events.end(), [] ( const Event& a, const Event& b ) {
            return a.beginNs != b.beginNs ? a.beginNs < b.beginNs : a.endNs > b.endNs;
        } );
        std::vector<std::uint64_t> childNs( events.size(), 0 );
        std::vector<std::size_t> open;
        for ( std::size_t i = 0; i < events.size(); ++i ) {
            while ( !open.empty() && ( events[open.back()].endNs <= events[i].beginNs ) ) {
                open.pop_back();
            }
            if ( !open.empty() ) {
                if ( events[i].endNs > events[open.back()].endNs ) {
                    ++fold.partialOverlaps;
                }
                childNs[open.back()] += static_cast<std::uint64_t>( events[i].endNs - events[i].beginNs );
            }
            open.push_back( i );
        }
        for ( std::size_t i = 0; i < events.size(); ++i ) {
            const auto duration = static_cast<std::uint64_t>( events[i].endNs - events[i].beginNs );
            auto& folded = fold.spans[events[i].name];
            ++folded.count;
            folded.totalNs += duration;
            folded.selfNs += duration - std::min( duration, childNs[i] );
            folded.threads[tid] = true;
        }
    }
    return fold;
}

void
printFold( const TraceFold& fold )
{
    std::fprintf( stderr, "  %-22s %8s %12s %12s %8s\n", "span", "count", "total s", "self s", "threads" );
    for ( const auto& [name, span] : fold.spans ) {
        std::fprintf( stderr, "  %-22s %8zu %12.6f %12.6f %8zu\n", name.c_str(), span.count,
                      seconds( span.totalNs ), seconds( span.selfNs ), span.threads.size() );
    }
}

/** Totals of the library's counters and histograms, read before and after
 * a traced phase so the phase's own share can be taken as a difference. */
struct RegistryTotals
{
    std::map<std::string, double> values;

    static RegistryTotals
    read()
    {
        auto& registry = telemetry::Registry::instance();
        RegistryTotals totals;
        for ( const auto* name : { "rapidgzip_blockfinder_positions_tested_total",
                                   "rapidgzip_blockfinder_valid_headers_total",
                                   "rapidgzip_chunk_redecodes_total",
                                   "rapidgzip_prefetch_issued_total",
                                   "rapidgzip_prefetch_consumed_total",
                                   "rapidgzip_prefetch_wasted_total",
                                   "rapidgzip_serve_zero_copy_bytes_total",
                                   "rapidgzip_serve_range_copy_bytes_total" } ) {
            totals.values[name] = static_cast<double>( registry.counterTotal( name ) );
        }
        for ( const auto* name : { "rapidgzip_pool_task_run_seconds",
                                   "rapidgzip_pool_task_wait_seconds" } ) {
            totals.values[name] = seconds( registry.histogram( name ).snapshot().sum );
        }
        return totals;
    }

    [[nodiscard]] double
    since( const RegistryTotals& before, const std::string& name ) const
    {
        return values.at( name ) - before.values.at( name );
    }
};

void
startTracing()
{
    telemetry::setMetricsEnabled( true );
    telemetry::setTraceEnabled( true );
}

/**
 * The per-layer metrics every traced run prints, all zero until a workload
 * fills in the ones its path reaches. Rates are per operation: one whole
 * decompression on the stream workloads, one request on serve-zipf.
 */
[[nodiscard]] double
poolThreads( const TraceFold& fold )
{
    const auto pool = fold.spans.find( "pool.task" );
    return pool == fold.spans.end() ? 0.0 : static_cast<double>( pool->second.threads.size() );
}

void
layerMetrics( Metrics& metrics, const TraceFold& fold, const RegistryTotals& before,
              const RegistryTotals& after, double operations )
{
    const auto total = [&fold] ( const char* name ) {
        const auto match = fold.spans.find( name );
        return match == fold.spans.end() ? 0.0 : seconds( match->second.totalNs );
    };
    const auto perSpan = [&fold] ( const char* name ) {
        const auto match = fold.spans.find( name );
        return ( match == fold.spans.end() ) || ( match->second.count == 0 )
               ? 0.0 : seconds( match->second.totalNs ) / static_cast<double>( match->second.count );
    };
    const auto perOp = [operations] ( double value ) { return value / operations; };
    const auto counter = [&] ( const char* name ) { return perOp( after.since( before, name ) ); };

    metrics.set( "formats.decompress_s", perSpan( "formats.decompress" ), "s/op" );
    metrics.set( "core.sweep_s", perSpan( "core.sweep" ), "s/op" );
    metrics.set( "core.replay_s", perSpan( "core.replay" ), "s/op" );
    metrics.set( "sink_s", perOp( total( "sink" ) ), "s/op" );
    metrics.set( "serve.client_request_s", perSpan( "serve.client_request" ), "s/op" );
    metrics.set( "blockfinder.find_s", perOp( total( "chunk.find" ) ), "s/op" );
    metrics.set( "blockfinder.positions_tested",
                 counter( "rapidgzip_blockfinder_positions_tested_total" ), "count/op" );
    metrics.set( "blockfinder.valid_headers",
                 counter( "rapidgzip_blockfinder_valid_headers_total" ), "count/op" );
    metrics.set( "deflate.decode_s", perOp( total( "chunk.decode" ) + total( "frame.decode" ) ), "s/op" );
    metrics.set( "core.stitch_s", perOp( total( "chunk.stitch" ) ), "s/op" );
    metrics.set( "core.redecodes", counter( "rapidgzip_chunk_redecodes_total" ), "count/op" );
    metrics.set( "core.chunk_wait_s", perOp( total( "chunk.wait" ) ), "s/op" );
    metrics.set( "core.prefetch_issued", counter( "rapidgzip_prefetch_issued_total" ), "count/op" );
    metrics.set( "core.prefetch_consumed", counter( "rapidgzip_prefetch_consumed_total" ), "count/op" );
    metrics.set( "core.prefetch_wasted", counter( "rapidgzip_prefetch_wasted_total" ), "count/op" );
    metrics.set( "common.pool_task_run_s", counter( "rapidgzip_pool_task_run_seconds" ), "s/op" );
    metrics.set( "common.pool_task_wait_s", counter( "rapidgzip_pool_task_wait_seconds" ), "s/op" );
    /* Each decompression starts its own pools, so on the stream workloads
     * this is the worker threads one decompression runs; serve-zipf
     * replaces it with the daemon's total. */
    metrics.set( "common.pool_threads", perOp( poolThreads( fold ) ), "count" );
    metrics.set( "serve.request_s", perOp( total( "serve.request" ) ), "s/op" );
    metrics.set( "serve.zero_copy_bytes", counter( "rapidgzip_serve_zero_copy_bytes_total" ), "bytes/op" );
    metrics.set( "serve.range_copy_bytes", counter( "rapidgzip_serve_range_copy_bytes_total" ), "bytes/op" );
    metrics.set( "trace.dropped_spans", static_cast<double>( fold.dropped ), "count" );
    /* filled in by the workloads whose path reaches them */
    for ( const auto* name : { "core.cache_hits", "core.cache_misses", "core.cache_evictions" } ) {
        metrics.set( name, 0, "count/op" );
    }
    metrics.set( "serve.write_s", 0, "s/op" );
    metrics.set( "index.open_s", 0, "s" );
    metrics.set( "gzip.zlib_inflate_MBps", 0, "MB/s" );
    metrics.set( "speedup_vs_zlib", 0, "ratio" );
}

/* ------------------------------------------------------------------ */
/* stream workloads                                                    */

struct StreamResult
{
    double totalS{ 0 };
    double firstByteS{ 0 };
};

class StreamWorkload
{
public:
    StreamWorkload( std::string path, Expected expected ) :
        m_path( std::move( path ) ),
        m_expected( expected )
    {
        m_configuration.parallelism = std::max( 1U, std::thread::hardware_concurrency() );
    }

    /** One whole decompression through Decompressor::decompress(sink), in
     * a fresh decompressor, checked against the generator's record. */
    StreamResult
    decompress()
    {
        const auto beginNs = nowNs();
        auto decompressor = formats::makeDecompressor( std::make_unique<StandardFileReader>( m_path ),
                                                       m_configuration );
        Sink sink;
        std::size_t returned = 0;
        {
            telemetry::Span span{ "bench", "formats.decompress" };
            returned = decompressor->decompress( [&sink] ( BufferView view ) { sink.consume( view ); } );
        }
        const auto endNs = nowNs();
        verify( sink, returned, *decompressor );
        return { seconds( endNs - beginNs ), seconds( sink.firstNs - beginNs ) };
    }

    /** The two halves decompress(sink) runs today, called one by one on a
     * fresh reader: the verifying sweep, then seek(0) and the read loop. */
    void
    sweepThenReplay()
    {
        auto decompressor = formats::makeDecompressor( std::make_unique<StandardFileReader>( m_path ),
                                                       m_configuration );
        auto& reader = gzipReader( *decompressor );
        {
            telemetry::Span span{ "bench", "core.sweep" };
            static_cast<void>( reader.decompressAll() );
        }
        Sink sink;
        {
            telemetry::Span span{ "bench", "core.replay" };
            reader.seek( 0 );
            std::vector<std::uint8_t> buffer( 4 * MiB );
            while ( const auto got = reader.read( buffer.data(), buffer.size() ) ) {
                sink.consume( { buffer.data(), got } );
            }
        }
        verify( sink, sink.bytes, *decompressor );
    }

    /** Single-threaded zlib inflate of the same file: the serial reference. */
    double
    zlibInflate() const
    {
        std::unique_ptr<std::FILE, int ( * )( std::FILE* )> file( std::fopen( m_path.c_str(), "rb" ), &std::fclose );
        check( file != nullptr, "cannot open " + m_path );
        z_stream stream{};
        check( inflateInit2( &stream, 15 + 16 ) == Z_OK, "inflateInit2 failed" );
        std::vector<std::uint8_t> input( 1 * MiB );
        std::vector<std::uint8_t> output( 1 * MiB );
        std::size_t produced = 0;
        int result = Z_OK;
        const auto beginNs = nowNs();
        while ( true ) {
            if ( stream.avail_in == 0 ) {
                stream.avail_in = static_cast<uInt>( std::fread( input.data(), 1, input.size(), file.get() ) );
                stream.next_in = input.data();
                if ( stream.avail_in == 0 ) {
                    break;
                }
            }
            stream.next_out = output.data();
            stream.avail_out = static_cast<uInt>( output.size() );
            result = inflate( &stream, Z_NO_FLUSH );
            produced += output.size() - stream.avail_out;
            if ( result == Z_STREAM_END ) {
                /* gzip members may follow one another */
                check( inflateReset( &stream ) == Z_OK, "inflateReset failed" );
            } else if ( result != Z_OK ) {
                break;
            }
        }
        const auto endNs = nowNs();
        inflateEnd( &stream );
        check( ( result == Z_STREAM_END || result == Z_OK ) && ( produced == m_expected.length ),
               "zlib reference inflate disagrees with the generator's record" );
        return seconds( endNs - beginNs );
    }

    [[nodiscard]] std::size_t length() const noexcept { return m_expected.length; }

    /** The index the last checked decompression left behind. */
    [[nodiscard]] const GzipIndex& lastIndex() const noexcept { return m_lastIndex; }

private:
    struct Sink
    {
        std::size_t bytes{ 0 };
        uLong crc{ crc32( 0, nullptr, 0 ) };
        std::uint64_t firstNs{ 0 };

        void
        consume( BufferView view )
        {
            if ( firstNs == 0 ) {
                firstNs = nowNs();
            }
            telemetry::Span span{ "bench", "sink" };
            crc = crc32_z( crc, view.data(), view.size() );
            bytes += view.size();
        }
    };

    static ParallelGzipReader&
    gzipReader( formats::Decompressor& decompressor )
    {
        auto* const gzip = dynamic_cast<formats::GzipDecompressor*>( &decompressor );
        check( gzip != nullptr, "input was not routed to the gzip backend" );
        return gzip->reader();
    }

    void
    verify( const Sink& sink, std::size_t returned, formats::Decompressor& decompressor )
    {
        check( sink.bytes == m_expected.length, "decompressed length differs from the generator's record" );
        check( static_cast<std::uint32_t>( sink.crc ) == m_expected.crc,
               "decompressed crc32 differs from the generator's record" );
        check( returned == m_expected.length, "decompress() returned a wrong size" );
        m_lastIndex = gzipReader( decompressor ).exportIndex();
        check( m_lastIndex.uncompressedSizeBytes == m_expected.length,
               "exportIndex().uncompressedSizeBytes differs from the generator's record" );
    }

    std::string m_path;
    Expected m_expected;
    ChunkFetcherConfiguration m_configuration;
    GzipIndex m_lastIndex;
};

struct RunTally
{
    std::size_t attempted{ 0 };
    std::size_t failed{ 0 };
};

void
runStream( const std::string& directory, double runSeconds, bool trace, std::uint64_t spawnNs,
           Metrics& metrics, RunTally& tally )
{
    const auto records = readRecord( directory );
    StreamWorkload workload( directory + "/input.gz", records.at( "input.gz" ) );
    const auto megabytes = static_cast<double>( workload.length() ) / 1e6;

    /* cold first pass: pool start, allocator growth, first-touch memory */
    ++tally.attempted;
    static_cast<void>( workload.decompress() );
    const auto setupS = seconds( nowNs() - spawnNs );
    /* The high-water mark of the one fresh decompression a one-shot user
     * pays for; later repetitions in the same process only add allocator
     * retention that varies from run to run. */
    const auto peakRss = peakRssMiB();

    std::vector<double> totals;
    std::vector<double> firstBytes;
    std::vector<double> zlibTimes;
    /* The traced run spends the first part untraced, interleaved with the
     * zlib reference, and the rest traced. */
    const auto untracedSeconds = trace ? runSeconds / 2 : runSeconds;
    const auto phaseBegin = nowNs();
    while ( ( totals.size() < 3 ) || ( seconds( nowNs() - phaseBegin ) < untracedSeconds ) ) {
        ++tally.attempted;
        const auto result = workload.decompress();
        totals.push_back( result.totalS );
        firstBytes.push_back( result.firstByteS );
        if ( trace ) {
            zlibTimes.push_back( workload.zlibInflate() );
        }
    }

    if ( !trace ) {
        std::sort( totals.begin(), totals.end() );
        const auto typical = median( totals );
        metrics.set( "decompress_MBps", megabytes / typical, "MB/s" );
        metrics.set( "first_byte_s", median( firstBytes ), "s" );
        metrics.set( "setup_s", setupS, "s" );
        metrics.set( "peak_rss_MiB", peakRss, "MiB" );
        metrics.set( "req_per_s", 1.0 / typical, "req/s" );
        metrics.set( "latency_p50_ms", typical * 1e3, "ms" );
        metrics.set( "latency_p99_ms", nearestRank( totals, 0.99 ) * 1e3, "ms" );
        std::fprintf( stderr, "  %zu warm decompressions, min %.4f median %.4f max %.4f s\n", totals.size(),
                      totals.front(), typical, totals.back() );
        return;
    }

    /* Traced phase: alternate whole decompress(sink) calls with the
     * sweep-then-replay split. Its length is capped so that no span ring
     * wraps (16384 spans per thread). */
    const auto before = RegistryTotals::read();
    startTracing();
    std::vector<double> tracedTotals;
    std::size_t operations = 0;
    const auto tracedBegin = nowNs();
    while ( ( operations < 2 )
            || ( ( operations < 16 ) && ( seconds( nowNs() - tracedBegin ) < runSeconds - untracedSeconds ) ) ) {
        ++tally.attempted;
        if ( operations % 2 == 0 ) {
            tracedTotals.push_back( workload.decompress().totalS );
        } else {
            workload.sweepThenReplay();
        }
        ++operations;
    }
    telemetry::setTraceEnabled( false );
    const auto after = RegistryTotals::read();
    telemetry::setMetricsEnabled( false );

    const auto fold = foldTrace();
    printFold( fold );
    check( fold.partialOverlaps == 0, "trace spans partly overlap on one thread" );
    layerMetrics( metrics, fold, before, after, static_cast<double>( operations ) );
    const auto& index = workload.lastIndex();
    metrics.set( "index.checkpoints", static_cast<double>( index.checkpoints.size() ), "count" );
    metrics.set( "index.window_bytes", static_cast<double>( index.windows.compressedBytes() ), "bytes" );
    const auto zlibMBps = megabytes / median( zlibTimes );
    metrics.set( "gzip.zlib_inflate_MBps", zlibMBps, "MB/s" );
    metrics.set( "speedup_vs_zlib", megabytes / median( totals ) / zlibMBps, "ratio" );
    metrics.set( "trace.overhead", median( tracedTotals ) / median( totals ), "ratio" );
}

/* ------------------------------------------------------------------ */
/* serve-zipf                                                          */

constexpr std::size_t ARCHIVE_COUNT = 4;
constexpr std::size_t RANGE_BYTES = 4 * KiB;
constexpr std::size_t CLIENTS = 2;
constexpr double WINDOW_SECONDS = 0.5;

/**
 * Zipf(s = 1) over every 4 KiB slot of the four archives, by inverse-CDF
 * lookup. Ranks fill 1 MiB regions in order, and the regions are scattered
 * over the archives with an odd multiplier: the hot set is a few regions
 * spread over all archives, so it fits the shared cache, while the tail
 * touches every chunk.
 */
class Zipf
{
public:
    static constexpr std::size_t SLOTS_PER_ARCHIVE = 16 * MiB / RANGE_BYTES;
    static constexpr std::size_t SLOTS_PER_REGION = 1 * MiB / RANGE_BYTES;

    Zipf()
    {
        const auto n = ARCHIVE_COUNT * SLOTS_PER_ARCHIVE;
        m_cumulative.reserve( n );
        double total = 0;
        for ( std::size_t rank = 1; rank <= n; ++rank ) {
            total += 1.0 / static_cast<double>( rank );
            m_cumulative.push_back( total );
        }
        for ( auto& value : m_cumulative ) {
            value /= total;
        }
    }

    /** Maps a uniform draw to (archive, byte offset). */
    [[nodiscard]] std::pair<std::size_t, std::size_t>
    operator()( double uniform ) const
    {
        const auto rank = std::min( m_cumulative.size() - 1, static_cast<std::size_t>(
            std::lower_bound( m_cumulative.begin(), m_cumulative.end(), uniform ) - m_cumulative.begin() ) );
        const auto regions = m_cumulative.size() / SLOTS_PER_REGION;
        const auto region = ( rank / SLOTS_PER_REGION * 37 + 11 ) % regions;
        const auto slot = region * SLOTS_PER_REGION + rank % SLOTS_PER_REGION;
        return { slot / SLOTS_PER_ARCHIVE, slot % SLOTS_PER_ARCHIVE * RANGE_BYTES };
    }

private:
    std::vector<double> m_cumulative;
};

/** Blocking keep-alive HTTP/1.1 client that checks each ranged body
 * against the raw file, read back with pread (never held in memory). */
class RangeClient
{
public:
    RangeClient( std::uint16_t port, const std::string& rawDirectory )
    {
        m_socket = ::socket( AF_INET, SOCK_STREAM, 0 );
        check( m_socket >= 0, "socket() failed" );
        const int one = 1;
        ::setsockopt( m_socket, IPPROTO_TCP, TCP_NODELAY, &one, sizeof( one ) );
        sockaddr_in address{};
        address.sin_family = AF_INET;
        address.sin_port = htons( port );
        ::inet_pton( AF_INET, "127.0.0.1", &address.sin_addr );
        check( ::connect( m_socket, reinterpret_cast<sockaddr*>( &address ), sizeof( address ) ) == 0,
               "connect() to the daemon failed" );
        for ( std::size_t i = 0; i < ARCHIVE_COUNT; ++i ) {
            const auto path = rawDirectory + "/archive" + std::to_string( i ) + ".gz";
            m_raw.push_back( ::open( path.c_str(), O_RDONLY ) );
            check( m_raw.back() >= 0, "cannot open " + path );
        }
    }

    ~RangeClient()
    {
        ::close( m_socket );
        for ( const auto fd : m_raw ) {
            ::close( fd );
        }
    }

    RangeClient( const RangeClient& ) = delete;
    RangeClient& operator=( const RangeClient& ) = delete;

    struct Timing
    {
        std::uint64_t endNs{ 0 };
        std::uint64_t latencyNs{ 0 };
        std::uint64_t firstByteNs{ 0 };
    };

    /** One verified GET; throws CheckFailed on any deviation. */
    Timing
    get( std::size_t archive, std::size_t offset )
    {
        const auto request = "GET /archive" + std::to_string( archive ) + ".gz HTTP/1.1\r\nHost: bench\r\n"
                             "Range: bytes=" + std::to_string( offset ) + "-"
                             + std::to_string( offset + RANGE_BYTES - 1 ) + "\r\n\r\n";
        Timing timing;
        std::size_t headerEnd = std::string::npos;
        std::size_t length = 0;
        {
            telemetry::Span span{ "bench", "serve.client_request" };
            const auto beginNs = nowNs();
            for ( std::size_t sent = 0; sent < request.size(); ) {
                const auto got = ::send( m_socket, request.data() + sent, request.size() - sent, MSG_NOSIGNAL );
                check( got > 0, "send() to the daemon failed" );
                sent += static_cast<std::size_t>( got );
            }
            m_buffer.clear();
            while ( ( headerEnd = m_buffer.find( "\r\n\r\n" ) ) == std::string::npos ) {
                fill();
                if ( timing.firstByteNs == 0 ) {
                    timing.firstByteNs = nowNs() - beginNs;
                }
            }
            const auto lengthAt = m_buffer.find( "Content-Length: " );
            check( ( m_buffer.compare( 0, 13, "HTTP/1.1 206 " ) == 0 ) && ( lengthAt < headerEnd ),
                   "expected a 206 with Content-Length, got: " + m_buffer.substr( 0, m_buffer.find( '\r' ) ) );
            length = static_cast<std::size_t>( std::strtoull( m_buffer.c_str() + lengthAt + 16, nullptr, 10 ) );
            while ( m_buffer.size() < headerEnd + 4 + length ) {
                fill();
            }
            timing.endNs = nowNs();
            timing.latencyNs = timing.endNs - beginNs;
        }
        check( ( length == RANGE_BYTES ) && ( m_buffer.size() == headerEnd + 4 + length ),
               "wrong body length for a ranged GET" );

        char expected[RANGE_BYTES];
        check( ::pread( m_raw[archive], expected, RANGE_BYTES, static_cast<off_t>( offset ) )
               == static_cast<ssize_t>( RANGE_BYTES ), "short pread of the raw file" );
        check( std::memcmp( expected, m_buffer.data() + headerEnd + 4, RANGE_BYTES ) == 0,
               "served bytes differ from the raw file" );
        ++completed;
        verifiedBytes += length;
        return timing;
    }

    std::size_t completed{ 0 };
    std::size_t verifiedBytes{ 0 };

private:
    void
    fill()
    {
        char chunk[16 * 1024];
        while ( true ) {
            const auto got = ::recv( m_socket, chunk, sizeof( chunk ), 0 );
            if ( ( got < 0 ) && ( errno == EINTR ) ) {
                continue;
            }
            check( got > 0, "daemon closed the connection" );
            m_buffer.append( chunk, static_cast<std::size_t>( got ) );
            return;
        }
    }

    int m_socket{ -1 };
    std::vector<int> m_raw;
    std::string m_buffer;
};

/** Closed-loop client threads, each on its own keep-alive connection. */
class ClientLoop
{
public:
    ClientLoop( std::uint16_t port, const std::string& rawDirectory, std::uint64_t seed )
    {
        for ( std::size_t i = 0; i < CLIENTS; ++i ) {
            m_clients.push_back( std::make_unique<RangeClient>( port, rawDirectory ) );
            m_random.emplace_back( seed * 7919 + i + 1 );
        }
        m_timings.resize( CLIENTS );
    }

    /** Run every client until @p durationS passed or each did
     * @p maxPerClient requests; returns the wall time taken. */
    double
    run( double durationS, std::size_t maxPerClient, bool record )
    {
        const auto beginNs = nowNs();
        const auto deadline = beginNs + static_cast<std::uint64_t>( durationS * 1e9 );
        std::vector<std::thread> threads;
        std::vector<std::string> errors( CLIENTS );
        for ( std::size_t c = 0; c < CLIENTS; ++c ) {
            threads.emplace_back( [&, c] () {
                try {
                    auto& client = *m_clients[c];
                    for ( std::size_t i = 0; ( i < maxPerClient ) && ( nowNs() < deadline ); ++i ) {
                        const auto timing = get( client, c );
                        if ( record ) {
                            m_timings[c].push_back( timing );
                        }
                    }
                } catch ( const std::exception& error ) {
                    errors[c] = error.what();
                }
            } );
        }
        for ( auto& thread : threads ) {
            thread.join();
        }
        for ( const auto& error : errors ) {
            check( error.empty(), error );
        }
        return seconds( nowNs() - beginNs );
    }

    RangeClient::Timing
    get( RangeClient& client, std::size_t c )
    {
        const auto [archive, offset] = m_picker( uniform( m_random[c] ) );
        return client.get( archive, offset );
    }

    [[nodiscard]] std::size_t
    completed() const
    {
        std::size_t sum = 0;
        for ( const auto& client : m_clients ) {
            sum += client->completed;
        }
        return sum;
    }

    [[nodiscard]] std::size_t
    verifiedBytes() const
    {
        std::size_t sum = 0;
        for ( const auto& client : m_clients ) {
            sum += client->verifiedBytes;
        }
        return sum;
    }

    RangeClient& first() { return *m_clients.front(); }

    std::vector<std::vector<RangeClient::Timing> >&
    timings()
    {
        return m_timings;
    }

private:
    static double
    uniform( Xorshift64& random )
    {
        return static_cast<double>( random() >> 11U ) * 0x1.0p-53;
    }

    Zipf m_picker;
    std::vector<std::unique_ptr<RangeClient> > m_clients;
    std::vector<Xorshift64> m_random;
    std::vector<std::vector<RangeClient::Timing> > m_timings;
};

/** Medians over fixed windows of completion time: p50, p99 and time to
 * first byte. A window's p99 rests on a few hundred requests, and the
 * median over windows keeps one stalled window from setting the figure. */
struct WindowedSummary
{
    double p50Ms{ 0 };
    double p99Ms{ 0 };
    double firstByteS{ 0 };
    std::size_t windows{ 0 };
};

[[nodiscard]] WindowedSummary
summarizeWindows( const std::vector<std::vector<RangeClient::Timing> >& perClient, std::uint64_t beginNs,
                  double durationS )
{
    const auto windowCount = std::max<std::size_t>( 1, static_cast<std::size_t>( durationS / WINDOW_SECONDS ) );
    std::vector<std::vector<double> > latencies( windowCount );
    std::vector<std::vector<double> > firstBytes( windowCount );
    for ( const auto& timings : perClient ) {
        for ( const auto& timing : timings ) {
            const auto window = static_cast<std::size_t>( seconds( timing.endNs - beginNs ) / WINDOW_SECONDS );
            if ( window < windowCount ) {
                latencies[window].push_back( static_cast<double>( timing.latencyNs ) / 1e6 );
                firstBytes[window].push_back( seconds( timing.firstByteNs ) );
            }
        }
    }
    std::vector<double> p50s, p99s, ttfbs;
    for ( std::size_t w = 0; w < windowCount; ++w ) {
        auto& sorted = latencies[w];
        std::sort( sorted.begin(), sorted.end() );
        p50s.push_back( nearestRank( sorted, 0.50 ) );
        p99s.push_back( nearestRank( sorted, 0.99 ) );
        ttfbs.push_back( median( firstBytes[w] ) );
    }
    return { median( p50s ), median( p99s ), median( ttfbs ), windowCount };
}

void
runServe( const std::string& directory, double runSeconds, bool trace, std::uint64_t seed,
          std::uint64_t spawnNs, Metrics& metrics, RunTally& tally )
{
    const auto records = readRecord( directory );
    check( records.size() == ARCHIVE_COUNT, "serve-zipf needs four archives" );

    serve::ServerConfiguration configuration;
    configuration.port = 0;
    configuration.rootDirectory = directory + "/archives";
    configuration.shardCount = 1;
    configuration.workerCount = 1;
    configuration.cacheBytes = 24 * MiB;  /* well below the 64 MiB the archives decode to */
    configuration.maxArchives = ARCHIVE_COUNT;
    configuration.readerConfiguration.parallelism = 2;
    configuration.readerConfiguration.chunkSizeBytes = 1 * MiB;
    const auto readerConfiguration = configuration.readerConfiguration;

    serve::Server server( std::move( configuration ) );
    server.start();
    std::thread loop( [&server] () { server.run(); } );
    const auto stopServer = [&server, &loop] () {
        if ( loop.joinable() ) {
            server.stop();
            loop.join();
        }
    };

    try {
        ClientLoop clients( server.port(), directory + "/raw", seed );

        /* set-up: every archive answers its first range (open + index) */
        double openS = 0;
        for ( std::size_t archive = 0; archive < ARCHIVE_COUNT; ++archive ) {
            ++tally.attempted;
            openS += seconds( clients.first().get( archive, 0 ).latencyNs );
        }
        const auto setupS = seconds( nowNs() - spawnNs );

        /* warm-up: let the shared cache reach its steady state */
        clients.run( 1.0, SIZE_MAX, false );

        const auto untracedSeconds = trace ? runSeconds / 2 : runSeconds;
        const auto measureBegin = nowNs();
        const auto wallS = clients.run( untracedSeconds, SIZE_MAX, true );
        const auto summary = summarizeWindows( clients.timings(), measureBegin, untracedSeconds );
        std::size_t measured = 0;
        for ( const auto& timings : clients.timings() ) {
            measured += timings.size();
        }
        std::fprintf( stderr, "  %zu measured requests in %.2f s, %zu windows\n", measured, wallS, summary.windows );

        const auto requestsPerSecond = static_cast<double>( measured ) / wallS;
        if ( !trace ) {
            metrics.set( "decompress_MBps", requestsPerSecond * RANGE_BYTES / 1e6, "MB/s" );
            metrics.set( "first_byte_s", summary.firstByteS, "s" );
            metrics.set( "setup_s", setupS, "s" );
            metrics.set( "req_per_s", requestsPerSecond, "req/s" );
            metrics.set( "latency_p50_ms", summary.p50Ms, "ms" );
            metrics.set( "latency_p99_ms", summary.p99Ms, "ms" );
        } else {
            /* traced phase: a fixed request count sized so no ring wraps */
            constexpr std::size_t TRACED_PER_CLIENT = 2500;
            const auto cacheBefore = server.sharedCache().statistics();
            const auto before = RegistryTotals::read();
            const auto completedBefore = clients.completed();
            startTracing();
            const auto tracedS = clients.run( runSeconds, TRACED_PER_CLIENT, false );
            telemetry::setTraceEnabled( false );
            const auto after = RegistryTotals::read();
            const auto cacheAfter = server.sharedCache().statistics();
            const auto requests = static_cast<double>( clients.completed() - completedBefore );

            const auto fold = foldTrace();
            printFold( fold );
            check( fold.partialOverlaps == 0, "trace spans partly overlap on one thread" );
            layerMetrics( metrics, fold, before, after, requests );
            const auto perRequest = [requests] ( std::size_t a, std::size_t b ) {
                return static_cast<double>( a - b ) / requests;
            };
            metrics.set( "core.cache_hits", perRequest( cacheAfter.hits, cacheBefore.hits ), "count/op" );
            metrics.set( "core.cache_misses", perRequest( cacheAfter.misses, cacheBefore.misses ), "count/op" );
            metrics.set( "core.cache_evictions", perRequest( cacheAfter.evictions, cacheBefore.evictions ),
                         "count/op" );
            metrics.set( "common.pool_threads", poolThreads( fold ), "count" );
            /* The daemon has no span around its socket writes, so this is
             * the client-observed time outside the worker's serve.request
             * span: pool queueing, completion hand-back to the shard,
             * sendmsg and loopback — an upper bound on the write time. */
            const auto& client = fold.spans.at( "serve.client_request" );
            const auto request = fold.spans.count( "serve.request" ) > 0 ? fold.spans.at( "serve.request" ).totalNs : 0;
            metrics.set( "serve.write_s", seconds( client.totalNs - std::min( client.totalNs, request ) ) / requests,
                         "s/op" );
            metrics.set( "index.open_s", openS, "s" );
            metrics.set( "trace.overhead", requestsPerSecond / ( requests / tracedS ), "ratio" );

            std::size_t checkpoints = 0;
            std::size_t windowBytes = 0;
            for ( std::size_t archive = 0; archive < ARCHIVE_COUNT; ++archive ) {
                formats::GzipDecompressor decompressor(
                    std::make_unique<StandardFileReader>( directory + "/archives/archive"
                                                          + std::to_string( archive ) + ".gz" ),
                    readerConfiguration );
                const auto index = decompressor.reader().exportIndex();
                checkpoints += index.checkpoints.size();
                windowBytes += index.windows.compressedBytes();
            }
            metrics.set( "index.checkpoints", static_cast<double>( checkpoints ), "count" );
            metrics.set( "index.window_bytes", static_cast<double>( windowBytes ), "bytes" );
        }

        const auto completed = clients.completed();
        tally.attempted = completed;
        stopServer();

        /* Independent totals: what the daemon counted must equal what the
         * clients verified. */
        const auto& serveMetrics = server.metrics();
        check( serveMetrics.bytesServed.total() == clients.verifiedBytes(),
               "rapidgzip_serve_bytes_served_total differs from the client-verified body bytes" );
        const auto served206 = telemetry::Registry::instance()
                                   .counter( "rapidgzip_serve_responses_total", "", "status=\"206\"" ).total();
        check( served206 == completed, "the daemon's 206 count differs from the client's completed count" );
        if ( !trace ) {
            metrics.set( "peak_rss_MiB", peakRssMiB(), "MiB" );
        }
    } catch ( ... ) {
        stopServer();
        throw;
    }
}

}  // namespace

int
main( int argc, char** argv )
{
    std::signal( SIGPIPE, SIG_IGN );
    std::map<std::string, std::string> args;
    for ( int i = 1; i + 1 < argc; i += 2 ) {
        args[argv[i]] = argv[i + 1];
    }
    if ( ( args.count( "--workload" ) == 0 ) || ( args.count( "--data" ) == 0 ) ) {
        std::fprintf( stderr, "Usage: perfbench_run --workload <name> --data <directory> --seconds <s> "
                              "--trace <0|1> --seed <n> [--spawn-ns <ns>]\n" );
        return 2;
    }
    const auto workload = args["--workload"];
    const auto directory = args["--data"];
    const auto runSeconds = args.count( "--seconds" ) ? std::max( 1.0, std::atof( args["--seconds"].c_str() ) ) : 10.0;
    const auto trace = args.count( "--trace" ) && ( args["--trace"] == "1" );
    const auto seed = args.count( "--seed" ) ? std::strtoull( args["--seed"].c_str(), nullptr, 10 ) : 1;
    const auto spawnNs = args.count( "--spawn-ns" ) ? std::strtoull( args["--spawn-ns"].c_str(), nullptr, 10 )
                                                    : nowNs();

    Metrics metrics;
    RunTally tally;
    bool correct = true;
    try {
        if ( workload == "serve-zipf" ) {
            runServe( directory, runSeconds, trace, seed, spawnNs, metrics, tally );
        } else if ( ( workload == "gzip-silesia" ) || ( workload == "pigz-base64" )
                    || ( workload == "single-block" ) ) {
            runStream( directory, runSeconds, trace, spawnNs, metrics, tally );
        } else {
            std::fprintf( stderr, "Unknown workload '%s'\n", workload.c_str() );
            return 2;
        }
    } catch ( const std::exception& error ) {
        std::fprintf( stderr, "perfbench_run: FAILED: %s\n", error.what() );
        correct = false;
        tally.failed += 1;
        tally.attempted = std::max( tally.attempted, tally.failed );
    }

    std::printf( "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
                 correct ? "true" : "false", tally.attempted, tally.failed, metrics.json().c_str() );
    std::fflush( stdout );
    return correct ? 0 : 1;
}
