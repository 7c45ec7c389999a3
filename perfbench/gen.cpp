/**
 * Input generator for the end-to-end benchmark.
 *
 *   perfbench_gen <workload> <seed> <output directory>
 *
 * Writes the workload's compressed input(s) and a record file that lists,
 * per input, the length and zlib crc32 of the RAW bytes, taken before they
 * are compressed. The measuring program checks every decompression against
 * this record, so the check does not rely on the decoder under test.
 *
 * Everything here is independent of the library: its own PRNG and data
 * synthesis, zlib's deflate for the gzip-like and pigz-like streams, and a
 * small bit packer for the fixed-Huffman single-block stream. Data flows
 * through bounded buffers, so memory stays small at any input size.
 */

#include <unistd.h>
#include <zlib.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace {

constexpr std::size_t KiB = 1024;
constexpr std::size_t MiB = 1024 * KiB;

/** splitmix64: small, fast, and fully determined by the seed. */
class Random
{
public:
    explicit Random( std::uint64_t seed ) : m_state( seed ) {}

    std::uint64_t
    next()
    {
        auto z = ( m_state += 0x9E3779B97F4A7C15ULL );
        z = ( z ^ ( z >> 30U ) ) * 0xBF58476D1CE4E5B9ULL;
        z = ( z ^ ( z >> 27U ) ) * 0x94D049BB133111EBULL;
        return z ^ ( z >> 31U );
    }

    /** Uniform in [0, bound). */
    std::uint64_t
    below( std::uint64_t bound )
    {
        return next() % bound;
    }

    double
    uniform()
    {
        return static_cast<double>( next() >> 11U ) * 0x1.0p-53;
    }

private:
    std::uint64_t m_state;
};

using ByteSink = std::function<void( const std::uint8_t*, std::size_t )>;

/** Collects generated bytes into fixed-size blocks and hands them on. */
class BlockBuffer
{
public:
    BlockBuffer( const ByteSink& sink, std::size_t capacity = 256 * KiB ) :
        m_sink( sink )
    {
        m_buffer.reserve( capacity );
    }

    void
    put( const char* data, std::size_t size )
    {
        m_buffer.insert( m_buffer.end(), data, data + size );
        if ( m_buffer.size() >= m_buffer.capacity() / 2 ) {
            flush();
        }
    }

    void put( char c ) { put( &c, 1 ); }

    void
    flush()
    {
        if ( !m_buffer.empty() ) {
            m_sink( m_buffer.data(), m_buffer.size() );
            m_buffer.clear();
        }
    }

private:
    const ByteSink& m_sink;
    std::vector<std::uint8_t> m_buffer;
};

/**
 * Silesia-like mixed data: runs of prose over a seeded vocabulary with a
 * skewed word frequency, runs of structured log records, and runs of
 * incompressible bytes. The mix compresses about 3:1 at level 6, as the
 * real Silesia corpus does.
 */
void
silesiaLike( std::size_t size, std::uint64_t seed, const ByteSink& sink )
{
    Random random( seed );
    static constexpr std::array<const char*, 24> SYLLABLES = {
        "th", "er", "on", "an", "re", "he", "in", "ed", "nd", "ha", "at", "en",
        "es", "of", "or", "nt", "ea", "ti", "to", "it", "st", "io", "le", "is" };
    std::vector<std::string> vocabulary( 3000 );
    for ( auto& word : vocabulary ) {
        const auto syllables = 1 + random.below( 4 );
        for ( std::size_t i = 0; i < syllables; ++i ) {
            word += SYLLABLES[random.below( SYLLABLES.size() )];
        }
        if ( random.below( 2 ) == 0 ) {
            word += static_cast<char>( 'a' + random.below( 26 ) );
        }
    }
    static constexpr std::array<const char*, 6> HOSTS = {
        "alpha", "bravo", "charlie", "delta", "echo", "foxtrot" };
    static constexpr std::array<const char*, 5> VERBS = { "GET", "PUT", "POST", "HEAD", "DELETE" };
    static constexpr std::array<int, 6> STATUS = { 200, 200, 200, 304, 404, 500 };

    BlockBuffer out( sink );
    std::size_t produced = 0;
    std::array<char, 256> line{};
    while ( produced < size ) {
        const auto kind = random.below( 100 );
        const auto runLength = std::min<std::size_t>( size - produced,
                                                      4 * KiB + random.below( 60 * KiB ) );
        std::size_t run = 0;
        if ( kind < 60 ) {
            /* prose: sentences of skewed-frequency words, wrapped lines */
            std::size_t column = 0;
            while ( run < runLength ) {
                const auto sentence = 4 + random.below( 16 );
                for ( std::size_t w = 0; ( w < sentence ) && ( run < runLength ); ++w ) {
                    const auto u = random.uniform();
                    const auto& word = vocabulary[static_cast<std::size_t>(
                        u * u * u * u * static_cast<double>( vocabulary.size() ) )];
                    std::string token = word;
                    if ( w == 0 ) {
                        token[0] = static_cast<char>( token[0] - 'a' + 'A' );
                    }
                    token += ( w + 1 == sentence ) ? ". " : " ";
                    const auto take = std::min( token.size(), runLength - run );
                    out.put( token.data(), take );
                    run += take;
                    column += take;
                    if ( ( column > 72 ) && ( run < runLength ) ) {
                        out.put( '\n' );
                        ++run;
                        column = 0;
                    }
                }
            }
        } else if ( kind < 93 ) {
            /* structured records: access-log lines */
            while ( run < runLength ) {
                const auto length = std::snprintf(
                    line.data(), line.size(),
                    "2023-%02u-%02uT%02u:%02u:%02u host=%s-%03u verb=%s path=/api/v1/item/%u "
                    "status=%d bytes=%u ms=%u\n",
                    static_cast<unsigned>( 1 + random.below( 12 ) ),
                    static_cast<unsigned>( 1 + random.below( 28 ) ),
                    static_cast<unsigned>( random.below( 24 ) ),
                    static_cast<unsigned>( random.below( 60 ) ),
                    static_cast<unsigned>( random.below( 60 ) ),
                    HOSTS[random.below( HOSTS.size() )],
                    static_cast<unsigned>( random.below( 64 ) ),
                    VERBS[random.below( VERBS.size() )],
                    static_cast<unsigned>( random.below( 100000 ) ),
                    STATUS[random.below( STATUS.size() )],
                    static_cast<unsigned>( random.below( 1U << 20U ) ),
                    static_cast<unsigned>( random.below( 5000 ) ) );
                const auto take = std::min( static_cast<std::size_t>( length ), runLength - run );
                out.put( line.data(), take );
                run += take;
            }
        } else {
            /* incompressible */
            while ( run < runLength ) {
                const auto value = random.next();
                const auto take = std::min( sizeof( value ), runLength - run );
                out.put( reinterpret_cast<const char*>( &value ), take );
                run += take;
            }
        }
        produced += runLength;
    }
    out.flush();
}

/** Base64 text of random bytes in 76-column lines, as `base64` prints it. */
void
base64Like( std::size_t size, std::uint64_t seed, const ByteSink& sink )
{
    static constexpr char ALPHABET[] =
        "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    Random random( seed );
    BlockBuffer out( sink );
    std::array<char, 77> line{};
    line[76] = '\n';
    for ( std::size_t produced = 0; produced < size; ) {
        for ( std::size_t i = 0; i < 76; i += 4 ) {
            const auto value = random.next();
            for ( std::size_t j = 0; j < 4; ++j ) {
                line[i + j] = ALPHABET[( value >> ( 6 * j ) ) & 63U];
            }
        }
        const auto take = std::min( line.size(), size - produced );
        out.put( line.data(), take );
        produced += take;
    }
    out.flush();
}

class OutputFile
{
public:
    explicit OutputFile( const std::string& path ) :
        m_file( std::fopen( path.c_str(), "wb" ) ),
        m_path( path )
    {
        if ( m_file == nullptr ) {
            throw std::runtime_error( "cannot create " + path );
        }
    }

    ~OutputFile()
    {
        if ( m_file != nullptr ) {
            std::fclose( m_file );
        }
    }

    OutputFile( const OutputFile& ) = delete;
    OutputFile& operator=( const OutputFile& ) = delete;

    void
    write( const void* data, std::size_t size )
    {
        if ( ( size > 0 ) && ( std::fwrite( data, 1, size, m_file ) != size ) ) {
            throw std::runtime_error( "short write to " + m_path );
        }
    }

    /** Flushes to disk too, so no write-back of the input overlaps the
     * measured run that follows. */
    void
    close()
    {
        const auto synced = ( std::fflush( m_file ) == 0 ) && ( ::fsync( fileno( m_file ) ) == 0 );
        const auto result = std::fclose( m_file );
        m_file = nullptr;
        if ( !synced || ( result != 0 ) ) {
            throw std::runtime_error( "cannot close " + m_path );
        }
    }

private:
    std::FILE* m_file;
    std::string m_path;
};

struct Record
{
    std::size_t length{ 0 };
    std::uint32_t crc{ static_cast<std::uint32_t>( crc32( 0, nullptr, 0 ) ) };

    void
    add( const std::uint8_t* data, std::size_t size )
    {
        length += size;
        for ( std::size_t done = 0; done < size; ) {
            const auto take = static_cast<uInt>( std::min<std::size_t>( size - done, 1U << 30U ) );
            crc = static_cast<std::uint32_t>( crc32( crc, data + done, take ) );
            done += take;
        }
    }
};

/** zlib deflate into a gzip stream; @p flushInterval > 0 emits a
 * Z_FULL_FLUSH after every that many raw bytes (pigz --independent style). */
class GzipDeflater
{
public:
    GzipDeflater( const std::string& path, int level, std::size_t flushInterval ) :
        m_file( path ),
        m_flushInterval( flushInterval )
    {
        if ( deflateInit2( &m_stream, level, Z_DEFLATED, 15 + 16, 8, Z_DEFAULT_STRATEGY ) != Z_OK ) {
            throw std::runtime_error( "deflateInit2 failed" );
        }
    }

    ~GzipDeflater() { deflateEnd( &m_stream ); }

    GzipDeflater( const GzipDeflater& ) = delete;
    GzipDeflater& operator=( const GzipDeflater& ) = delete;

    void
    add( const std::uint8_t* data, std::size_t size )
    {
        record.add( data, size );
        while ( size > 0 ) {
            auto take = size;
            if ( m_flushInterval > 0 ) {
                take = std::min( take, m_flushInterval - m_sinceFlush );
            }
            run( data, take, Z_NO_FLUSH );
            m_sinceFlush += take;
            if ( ( m_flushInterval > 0 ) && ( m_sinceFlush == m_flushInterval ) ) {
                run( nullptr, 0, Z_FULL_FLUSH );
                m_sinceFlush = 0;
            }
            data += take;
            size -= take;
        }
    }

    void
    finish()
    {
        run( nullptr, 0, Z_FINISH );
        m_file.close();
    }

    Record record;

private:
    void
    run( const std::uint8_t* data, std::size_t size, int flush )
    {
        m_stream.next_in = const_cast<Bytef*>( data );
        m_stream.avail_in = static_cast<uInt>( size );
        int result = Z_OK;
        do {
            m_stream.next_out = m_output.data();
            m_stream.avail_out = static_cast<uInt>( m_output.size() );
            result = deflate( &m_stream, flush );
            if ( ( result != Z_OK ) && ( result != Z_STREAM_END ) && ( result != Z_BUF_ERROR ) ) {
                throw std::runtime_error( "deflate failed" );
            }
            m_file.write( m_output.data(), m_output.size() - m_stream.avail_out );
        } while ( ( m_stream.avail_out == 0 ) || ( m_stream.avail_in > 0 )
                  || ( ( flush == Z_FINISH ) && ( result != Z_STREAM_END ) ) );
    }

    OutputFile m_file;
    z_stream m_stream{};
    std::size_t m_flushInterval;
    std::size_t m_sinceFlush{ 0 };
    std::array<std::uint8_t, 256 * KiB> m_output{};
};

/**
 * One BFINAL fixed-Huffman Deflate block holding only literals, inside a
 * gzip member: the shape `igzip -0` produces. Codes per RFC 1951 3.2.6,
 * packed LSB-first with each Huffman code bit-reversed.
 */
class FixedBlockWriter
{
public:
    explicit FixedBlockWriter( const std::string& path ) :
        m_file( path )
    {
        static constexpr std::uint8_t HEADER[10] = { 0x1F, 0x8B, 8, 0, 0, 0, 0, 0, 0, 3 };
        m_file.write( HEADER, sizeof( HEADER ) );
        putBits( 1, 1 );  /* BFINAL */
        putBits( 1, 2 );  /* BTYPE = 01, fixed Huffman */
        for ( unsigned symbol = 0; symbol < 256; ++symbol ) {
            const auto [code, length] = symbol < 144 ? std::pair<unsigned, unsigned>{ 0x30 + symbol, 8 }
                                                     : std::pair<unsigned, unsigned>{ 0x190 + symbol - 144, 9 };
            unsigned reversed = 0;
            for ( unsigned bit = 0; bit < length; ++bit ) {
                reversed |= ( ( code >> bit ) & 1U ) << ( length - 1 - bit );
            }
            m_codes[symbol] = { reversed, length };
        }
    }

    void
    add( const std::uint8_t* data, std::size_t size )
    {
        record.add( data, size );
        for ( std::size_t i = 0; i < size; ++i ) {
            putBits( m_codes[data[i]].first, m_codes[data[i]].second );
        }
    }

    void
    finish()
    {
        putBits( 0, 7 );  /* end-of-block, code 256 = 0000000 */
        if ( m_bitCount > 0 ) {
            putBits( 0, 8 - m_bitCount );
        }
        const std::uint32_t trailer[2] = { record.crc, static_cast<std::uint32_t>( record.length ) };
        flushBytes();
        for ( const auto value : trailer ) {
            for ( unsigned i = 0; i < 4; ++i ) {
                m_bytes.push_back( static_cast<std::uint8_t>( value >> ( 8 * i ) ) );
            }
        }
        flushBytes();
        m_file.close();
    }

    Record record;

private:
    void
    putBits( std::uint64_t bits, unsigned count )
    {
        m_bits |= bits << m_bitCount;
        m_bitCount += count;
        while ( m_bitCount >= 8 ) {
            m_bytes.push_back( static_cast<std::uint8_t>( m_bits ) );
            m_bits >>= 8U;
            m_bitCount -= 8;
        }
        if ( m_bytes.size() >= 256 * KiB ) {
            flushBytes();
        }
    }

    void
    flushBytes()
    {
        m_file.write( m_bytes.data(), m_bytes.size() );
        m_bytes.clear();
    }

    OutputFile m_file;
    std::array<std::pair<unsigned, unsigned>, 256> m_codes{};
    std::uint64_t m_bits{ 0 };
    unsigned m_bitCount{ 0 };
    std::vector<std::uint8_t> m_bytes;
};

enum class Shape { SILESIA, BASE64 };

void
generate( Shape shape, std::size_t size, std::uint64_t seed, const ByteSink& sink )
{
    if ( shape == Shape::SILESIA ) {
        silesiaLike( size, seed, sink );
    } else {
        base64Like( size, seed, sink );
    }
}

/** Compresses one input; @p rawCopy, when set, also keeps the raw bytes. */
Record
gzipInput( const std::string& path, Shape shape, std::size_t size, std::uint64_t seed,
           std::size_t flushInterval, const std::string& rawCopy = {} )
{
    GzipDeflater deflater( path, 6, flushInterval );
    std::unique_ptr<OutputFile> raw = rawCopy.empty() ? nullptr : std::make_unique<OutputFile>( rawCopy );
    generate( shape, size, seed, [&] ( const std::uint8_t* data, std::size_t length ) {
        deflater.add( data, length );
        if ( raw ) {
            raw->write( data, length );
        }
    } );
    deflater.finish();
    if ( raw ) {
        raw->close();
    }
    return deflater.record;
}

}  // namespace

int
main( int argc, char** argv )
{
    if ( argc != 4 ) {
        std::fprintf( stderr, "Usage: perfbench_gen <workload> <seed> <output directory>\n" );
        return 2;
    }
    const std::string workload = argv[1];
    const auto seed = static_cast<std::uint64_t>( std::strtoull( argv[2], nullptr, 10 ) );
    const std::string directory = argv[3];

    try {
        /* name -> record, written last so a half-written directory has none */
        std::vector<std::pair<std::string, Record> > records;
        if ( workload == "gzip-silesia" ) {
            records.emplace_back( "input.gz", gzipInput( directory + "/input.gz", Shape::SILESIA,
                                                         128 * MiB, seed, 0 ) );
        } else if ( workload == "pigz-base64" ) {
            records.emplace_back( "input.gz", gzipInput( directory + "/input.gz", Shape::BASE64,
                                                         128 * MiB, seed, 1 * MiB ) );
        } else if ( workload == "single-block" ) {
            FixedBlockWriter writer( directory + "/input.gz" );
            silesiaLike( 8 * MiB, seed, [&writer] ( const std::uint8_t* data, std::size_t size ) {
                writer.add( data, size );
            } );
            writer.finish();
            records.emplace_back( "input.gz", writer.record );
        } else if ( workload == "serve-zipf" ) {
            /* Three pigz-like archives and one no-flush gzip, whose first
             * open runs the two-stage sweep. Raw copies sit beside the
             * served directory for byte-for-byte response checks. */
            for ( unsigned i = 0; i < 4; ++i ) {
                const auto name = "archive" + std::to_string( i ) + ".gz";
                const auto shape = ( i % 2 == 0 ) ? Shape::BASE64 : Shape::SILESIA;
                records.emplace_back( name, gzipInput( directory + "/archives/" + name, shape,
                                                       16 * MiB, seed * 4 + i,
                                                       i == 3 ? 0 : 1 * MiB,
                                                       directory + "/raw/" + name ) );
            }
        } else {
            std::fprintf( stderr, "Unknown workload '%s'\n", workload.c_str() );
            return 2;
        }

        OutputFile recordFile( directory + "/record.txt" );
        for ( const auto& [name, record] : records ) {
            const auto line = name + " " + std::to_string( record.length ) + " "
                              + std::to_string( record.crc ) + "\n";
            recordFile.write( line.data(), line.size() );
        }
        recordFile.close();
    } catch ( const std::exception& error ) {
        std::fprintf( stderr, "perfbench_gen: %s\n", error.what() );
        return 1;
    }
    return 0;
}
